package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one running blserve child process.
type server struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:port
	stderr bytes.Buffer
	drain  sync.WaitGroup // stdout drainer
	done   chan struct{}  // closed once the process has been reaped
	err    error          // Wait's result, valid after done
}

// startServer execs blserve with args on a free loopback port and returns
// once /v1/stats answers 200, with the time from exec to that answer.
func startServer(bin string, args []string) (*server, time.Duration, error) {
	s := &server{done: make(chan struct{})}
	s.cmd = exec.Command(bin, append(append([]string{}, args...), "-addr", "127.0.0.1:0")...)
	s.cmd.Stderr = &s.stderr
	// If the benchmark dies without stopping the server, the kernel does.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := s.cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := s.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start blserve: %w", err)
	}
	addrCh := make(chan string, 1)
	s.drain.Add(1)
	go func() {
		defer s.drain.Done()
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				select {
				case addrCh <- a:
				default:
				}
			}
		}
		close(addrCh)
	}()
	go func() {
		s.drain.Wait() // stdout must be fully read before Wait closes it
		s.err = s.cmd.Wait()
		close(s.done)
	}()

	const bootLimit = 60 * time.Second
	select {
	case a, ok := <-addrCh:
		if !ok {
			s.stop()
			return nil, 0, fmt.Errorf("blserve exited before listening: %s", s.stderr.String())
		}
		s.base = a
	case <-time.After(bootLimit):
		s.stop()
		return nil, 0, errors.New("blserve did not start listening")
	}
	poll := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: time.Second}
	for time.Since(t0) < bootLimit {
		resp, err := poll.Get(s.base + "/v1/stats")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.stop()
	return nil, 0, errors.New("blserve never answered /v1/stats")
}

// pid returns the child's process id.
func (s *server) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM, waits for the process to exit (killing it after a
// grace period) and reports a non-clean exit.
func (s *server) stop() error {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.done:
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
		return errors.New("blserve ignored SIGTERM")
	}
	if s.err != nil {
		return fmt.Errorf("blserve: %v: %s", s.err, s.stderr.String())
	}
	return nil
}

// get fetches path on the server with a fresh connection; for reads outside
// the measured load (metrics scrapes, readiness).
func (s *server) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.base+path, nil)
	if err != nil {
		return nil, err
	}
	c := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}, Timeout: 5 * time.Second}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return b, nil
}

// bootMedian boots blserve n >= 1 times, stopping all but the last, and
// returns the last server with the median exec-to-ready time.
func bootMedian(bin string, args []string, n int) (*server, float64, error) {
	var times []float64
	for {
		s, d, err := startServer(bin, args)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, d.Seconds())
		if len(times) >= n {
			return s, median(times), nil
		}
		if err := s.stop(); err != nil {
			return nil, 0, err
		}
	}
}
