package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunHelp(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Fatalf("-h exited %d, want 0\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "Usage of blgen") {
		t.Fatalf("-h did not print usage:\n%s", errb.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
}

func TestRunMissingOut(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 1 {
		t.Fatalf("missing -out exited %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "-out is required") {
		t.Fatalf("missing-flag error not reported:\n%s", errb.String())
	}
}

// TestRunWritesDatasets generates a tiny world and checks every dataset the
// command promises: RIPE logs, feed snapshots, pfx2as, ground truth.
func TestRunWritesDatasets(t *testing.T) {
	dir := t.TempDir()
	var out, errb bytes.Buffer
	code := run([]string{"-out", dir, "-seed", "1", "-scale", "0.05", "-days", "3"}, &out, &errb)
	if code != 0 {
		t.Fatalf("generation exited %d\nstderr: %s", code, errb.String())
	}
	for _, name := range []string{"ripe-connection-logs.csv", "pfx2as.txt", "ground-truth.txt"} {
		fi, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "feeds", "*_*.txt"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no feed snapshots written (%v)", err)
	}
	gt, err := os.ReadFile(filepath.Join(dir, "ground-truth.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(gt), "nat ") {
		t.Errorf("ground truth lists no NAT gateways:\n%.200s", gt)
	}
}

// TestRunGroundTruthWriteError: a ground-truth write that fails (the file
// is a symlink to a full device) is a runtime failure, not a "wrote ground
// truth" success.
func TestRunGroundTruthWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	dir := t.TempDir()
	if err := os.Symlink("/dev/full", filepath.Join(dir, "ground-truth.txt")); err != nil {
		t.Skip("cannot symlink:", err)
	}
	var out, errb bytes.Buffer
	code := run([]string{"-out", dir, "-seed", "1", "-scale", "0.05", "-days", "1"}, &out, &errb)
	if code != 1 {
		t.Fatalf("write to /dev/full exited %d, want 1\nstdout: %s", code, out.String())
	}
	if strings.Contains(out.String(), "wrote ground truth") {
		t.Errorf("failed write reported as written:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "no space left") {
		t.Errorf("stderr does not name the write error:\n%s", errb.String())
	}
}
