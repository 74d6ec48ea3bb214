package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// ledgerFile is the bench ledger's file name at the module root: one JSON
// array of BenchRow that every benchmark and load scenario appends to.
const ledgerFile = "BENCH_ledger.json"

// ledgerEnv names the environment variable that points AppendBench at
// another ledger file (CI jobs use it to collect rows as an artifact).
const ledgerEnv = "BENCH_LEDGER"

// BenchRow is one measurement in the bench ledger. Case holds the inputs
// that tell rows of one bench apart, in Go sub-benchmark form
// ("vantages=4/workers=2"); Metrics holds every measured output. AppendBench
// stamps When, Rev, NumCPU and GOMAXPROCS; rows carried over from older
// bench files leave out the ones those files never recorded.
type BenchRow struct {
	Bench      string             `json:"bench"`
	Case       string             `json:"case,omitempty"`
	Layer      string             `json:"layer,omitempty"`
	When       string             `json:"when,omitempty"` // RFC3339
	Rev        string             `json:"rev,omitempty"`
	NumCPU     int                `json:"num_cpu,omitempty"`
	GOMAXPROCS int                `json:"gomaxprocs,omitempty"`
	Seed       int64              `json:"seed,omitempty"`
	Scale      float64            `json:"scale,omitempty"`
	Metrics    map[string]float64 `json:"metrics"`
}

// AppendBench stamps rows with the wall clock, the git revision and the
// host's CPU facts, and appends them to the ledger: $BENCH_LEDGER, else
// BENCH_ledger.json at the module root. The existing file must parse as a
// JSON array: a corrupt history is reported and left untouched. The rewrite
// is renamed into place, so a crash cannot truncate it, and earlier rows
// keep their bytes.
func AppendBench(rows ...BenchRow) error {
	if len(rows) == 0 {
		return nil
	}
	root := moduleRoot()
	path := os.Getenv(ledgerEnv)
	if path == "" {
		path = filepath.Join(root, ledgerFile)
	}
	var recs []json.RawMessage
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &recs); err != nil {
			return fmt.Errorf("obs: existing %s is not a bench-row array: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	m := NewManifest()
	rev := m.VCSRevision
	if rev == "" {
		rev = gitHead(filepath.Join(root, ".git"))
	}
	for _, row := range rows {
		row.When = m.GeneratedAt.Format(time.RFC3339)
		row.Rev, row.NumCPU, row.GOMAXPROCS = rev, m.NumCPU, m.GOMAXPROCS
		raw, err := json.Marshal(row)
		if err != nil {
			return fmt.Errorf("obs: encoding bench row %s %s: %w", row.Bench, row.Case, err)
		}
		recs = append(recs, raw)
	}
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// moduleRoot is the nearest directory at or above the working directory
// holding a go.mod (tests run in their package directory), else the working
// directory itself.
func moduleRoot() string {
	wd, err := os.Getwd()
	if err != nil {
		return "."
	}
	for dir := wd; ; {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return wd
		}
		dir = parent
	}
}

// gitHead reads the commit checked out in the git directory gitDir —
// `go test` binaries carry no VCS stamp — or "unknown" when there is none.
func gitHead(gitDir string) string {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if sha, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}
