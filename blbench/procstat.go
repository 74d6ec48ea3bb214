package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"strings"
	"syscall"
)

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// selfCPU returns the CPU seconds (user + system) this process has used.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// procCPU returns the CPU seconds (user + system) process pid has used.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc %d: malformed stat", pid)
	}
	f := strings.Fields(string(b[i+1:]))
	// After ')': state(0) ... utime is field 14 of stat, index 11 here.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc %d: short stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc %d: bad cpu times", pid)
	}
	return (ut + st) / clockTicks, nil
}

// peakRSSMB returns process pid's peak resident set (VmHWM) in MiB; pid 0
// means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s: no VmHWM", path)
}
