package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/ripeatlas"
)

func TestRunHelp(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-h"}, &out, &errb); code != 0 {
		t.Fatalf("-h exited %d, want 0\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(errb.String(), "Usage of bldetect") {
		t.Fatalf("-h did not print usage:\n%s", errb.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag exited %d, want 2", code)
	}
}

func TestRunMissingLogs(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run(nil, &out, &errb); code != 1 {
		t.Fatalf("missing -logs exited %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "-logs is required") {
		t.Fatalf("missing-flag error not reported:\n%s", errb.String())
	}
}

func TestRunNonexistentLogs(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-logs", filepath.Join(t.TempDir(), "nope.csv")}, &out, &errb); code != 1 {
		t.Fatalf("nonexistent log file exited %d, want 1", code)
	}
}

// TestRunDetectsFromGeneratedLogs writes a tiny world's RIPE connection log
// and runs the full detection pipeline over it through the CLI surface.
// generatedLogs writes a small generated world's RIPE logs under dir.
func generatedLogs(t *testing.T, dir string) string {
	t.Helper()
	w := blgen.Generate(blgen.TestParams(1))
	logs := filepath.Join(dir, "logs.csv")
	f, err := os.Create(logs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ripeatlas.WriteLogs(f, w.RIPELogs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return logs
}

func TestRunDetectsFromGeneratedLogs(t *testing.T) {
	dir := t.TempDir()
	logs := generatedLogs(t, dir)
	prefixes := filepath.Join(dir, "prefixes.txt")
	var out, errb bytes.Buffer
	if code := run([]string{"-logs", logs, "-prefixes-out", prefixes}, &out, &errb); code != 0 {
		t.Fatalf("detection run exited %d\nstderr: %s", code, errb.String())
	}
	for _, want := range []string{"probes:", "knee threshold", "dynamic /24 prefixes"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
	data, err := os.ReadFile(prefixes)
	if err != nil {
		t.Fatalf("prefixes artifact: %v", err)
	}
	if !strings.HasPrefix(string(data), "# dynamic prefixes detected by bldetect") {
		t.Errorf("prefixes file missing header:\n%s", data)
	}
}

// TestRunPrefixesOutWriteError: a -prefixes-out write that fails (a full
// device) is a runtime failure, not a "wrote N prefixes" success.
func TestRunPrefixesOutWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this system")
	}
	logs := generatedLogs(t, t.TempDir())
	var out, errb bytes.Buffer
	if code := run([]string{"-logs", logs, "-prefixes-out", "/dev/full"}, &out, &errb); code != 1 {
		t.Fatalf("write to /dev/full exited %d, want 1\nstdout: %s", code, out.String())
	}
	if strings.Contains(out.String(), "wrote ") {
		t.Errorf("failed write reported as written:\n%s", out.String())
	}
	if !strings.Contains(errb.String(), "no space left") {
		t.Errorf("stderr does not name the write error:\n%s", errb.String())
	}
}
