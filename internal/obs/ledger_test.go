package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"testing"
	"time"
)

func TestAppendBench(t *testing.T) {
	load := BenchRow{Bench: "check-load", Case: "concurrency=8/duration_sec=3", Layer: "blserve",
		Seed: 48, Scale: 0.05, Metrics: map[string]float64{"requests": 100, "rps": 50, "p99_ms": 4}}
	flood := BenchRow{Bench: "overload-flood", Case: "concurrency=20/duration_sec=1.5", Layer: "shed",
		Metrics: map[string]float64{"capacity_rps": 900, "goodput_rps": 700, "goodput_share": 0.78, "p99_ms": 12, "shed": 340}}
	for _, tc := range []struct {
		name    string
		history string // "" means no file yet
		appends [][]BenchRow
		want    []BenchRow // nil when the last append must fail
	}{
		{name: "creates the ledger", appends: [][]BenchRow{{load}}, want: []BenchRow{load}},
		{name: "appends to earlier runs", appends: [][]BenchRow{{load}, {load, flood}},
			want: []BenchRow{load, load, flood}},
		{name: "same row twice", appends: [][]BenchRow{{flood}, {flood}}, want: []BenchRow{flood, flood}},
		{name: "keeps migrated rows", history: "[\n  {\n    \"bench\": \"old\",\n    \"metrics\": {\n      \"ns_per_op\": 5\n    }\n  }\n]\n",
			appends: [][]BenchRow{{load}},
			want:    []BenchRow{{Bench: "old", Metrics: map[string]float64{"ns_per_op": 5}}, load}},
		{name: "truncated history", history: "{not an array", appends: [][]BenchRow{{load}}},
		{name: "non-JSON history", history: "not json", appends: [][]BenchRow{{flood}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), ledgerFile)
			t.Setenv(ledgerEnv, path)
			if tc.history != "" {
				if err := os.WriteFile(path, []byte(tc.history), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var before []byte
			var err error
			for _, rows := range tc.appends {
				before, _ = os.ReadFile(path)
				if err = AppendBench(rows...); err != nil {
					break
				}
			}
			after, _ := os.ReadFile(path)
			if tc.want == nil {
				if err == nil {
					t.Fatal("AppendBench overwrote a malformed history")
				}
				if string(after) != tc.history {
					t.Fatalf("corrupt history was rewritten to %q", after)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			// Earlier rows keep their bytes: the old file minus its closing
			// bracket is a prefix of the new one.
			if len(before) > 0 && !bytes.HasPrefix(after, bytes.TrimSuffix(before, []byte("\n]\n"))) {
				t.Fatalf("append rewrote earlier rows:\nbefore:\n%s\nafter:\n%s", before, after)
			}
			var got []BenchRow
			if err := json.Unmarshal(after, &got); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Fatalf("ledger holds %d rows, want %d", len(got), len(tc.want))
			}
			for i, row := range got {
				want := tc.want[i]
				if want.Bench != "old" {
					if !regexp.MustCompile(`^[0-9a-f]{40}$|^unknown$`).MatchString(row.Rev) {
						t.Errorf("row %d rev = %q", i, row.Rev)
					}
					if _, err := time.Parse(time.RFC3339, row.When); err != nil {
						t.Errorf("row %d when: %v", i, err)
					}
					if row.NumCPU != runtime.NumCPU() || row.GOMAXPROCS != runtime.GOMAXPROCS(0) {
						t.Errorf("row %d stamps num_cpu=%d gomaxprocs=%d", i, row.NumCPU, row.GOMAXPROCS)
					}
					want.When, want.Rev, want.NumCPU, want.GOMAXPROCS = row.When, row.Rev, row.NumCPU, row.GOMAXPROCS
				}
				if !reflect.DeepEqual(row, want) {
					t.Errorf("row %d round-trip mismatch:\n got %+v\nwant %+v", i, row, want)
				}
			}
		})
	}
}

func TestGitHead(t *testing.T) {
	const sha = "0123456789abcdef0123456789abcdef01234567"
	for _, tc := range []struct {
		name  string
		files map[string]string
		want  string
	}{
		{"no git directory", nil, "unknown"},
		{"detached", map[string]string{"HEAD": sha + "\n"}, sha},
		{"loose ref", map[string]string{"HEAD": "ref: refs/heads/main\n", "refs/heads/main": sha + "\n"}, sha},
		{"packed ref", map[string]string{"HEAD": "ref: refs/heads/main\n",
			"packed-refs": "# pack-refs with: peeled\n" + sha + " refs/heads/main\n"}, sha},
		{"dangling ref", map[string]string{"HEAD": "ref: refs/heads/gone\n"}, "unknown"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), ".git")
			for name, body := range tc.files {
				p := filepath.Join(dir, filepath.FromSlash(name))
				if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if got := gitHead(dir); got != tc.want {
				t.Errorf("gitHead = %q, want %q", got, tc.want)
			}
		})
	}
}
