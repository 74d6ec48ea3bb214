package e2e

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/obs"
)

func TestWaitFor(t *testing.T) {
	calls := 0
	err := WaitFor(time.Second, time.Millisecond, func() (bool, error) {
		calls++
		return calls >= 3, nil
	})
	if err != nil {
		t.Fatalf("WaitFor: %v", err)
	}
	if calls != 3 {
		t.Fatalf("condition polled %d times, want 3", calls)
	}

	if err := WaitFor(20*time.Millisecond, time.Millisecond, func() (bool, error) {
		return false, nil
	}); err == nil {
		t.Fatal("WaitFor did not time out")
	}

	terminal := errors.New("process exited")
	if err := WaitFor(time.Second, time.Millisecond, func() (bool, error) {
		return false, terminal
	}); !errors.Is(err, terminal) {
		t.Fatalf("WaitFor swallowed the terminal error: %v", err)
	}
}

func TestFindBaseURL(t *testing.T) {
	out := "blserve: dataset ready\nserving on http://127.0.0.1:43521 (pid 9)\n"
	base, ok := FindBaseURL(out)
	if !ok || base != "http://127.0.0.1:43521" {
		t.Fatalf("FindBaseURL = %q, %v", base, ok)
	}
	if _, ok := FindBaseURL("still starting up"); ok {
		t.Fatal("FindBaseURL matched output without a URL")
	}
}

func TestMetricValue(t *testing.T) {
	metrics := "# TYPE wall_dataset_reloads_total counter\n" +
		"wall_dataset_reloads_total 3\n" +
		"wall_dataset_reloads_total_created 1.5\n" +
		`wall_api_requests_total{endpoint="check"} 17` + "\n"
	if v, ok := MetricValue(metrics, "wall_dataset_reloads_total"); !ok || v != 3 {
		t.Fatalf("reloads = %v, %v; want 3", v, ok)
	}
	if v, ok := MetricValue(metrics, `wall_api_requests_total{endpoint="check"}`); !ok || v != 17 {
		t.Fatalf("labeled metric = %v, %v; want 17", v, ok)
	}
	if _, ok := MetricValue(metrics, "wall_absent_total"); ok {
		t.Fatal("MetricValue found an absent metric")
	}
}

func TestPercentileMs(t *testing.T) {
	var sorted []time.Duration
	for i := 1; i <= 100; i++ {
		sorted = append(sorted, time.Duration(i)*time.Millisecond)
	}
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.50, 50}, {0.95, 95}, {0.99, 99}} {
		if got := percentileMs(sorted, tc.p); got != tc.want {
			t.Errorf("p%.0f = %v ms, want %v", tc.p*100, got, tc.want)
		}
	}
	if got := percentileMs(nil, 0.5); got != 0 {
		t.Errorf("empty sample p50 = %v, want 0", got)
	}
	one := []time.Duration{7 * time.Millisecond}
	if got := percentileMs(one, 0.99); got != 7 {
		t.Errorf("single-sample p99 = %v, want 7", got)
	}
	if got := percentileMs(sorted, 0.0001); got != 1 {
		t.Errorf("tiny quantile must clamp to the first sample, got %v", got)
	}
}

func TestMergeNATedShards(t *testing.T) {
	dir := t.TempDir()
	shard := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := shard("a.txt", "# shard a\n1.2.3.4\t5\n9.9.9.9\t2\n")
	b := shard("b.txt", "# shard b\n1.2.3.4\t11\n8.8.4.4\t3\n")

	merged, err := MergeNATedShards([]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"1.2.3.4": 11, "9.9.9.9": 2, "8.8.4.4": 3}
	if len(merged) != len(want) {
		t.Fatalf("merged %d addresses, want %d", len(merged), len(want))
	}
	for ip, users := range want {
		if got := merged[iputil.MustParseAddr(ip)]; got != users {
			t.Errorf("%s merged to %d users, want max %d", ip, got, users)
		}
	}
}

func TestParseAddrLines(t *testing.T) {
	body := []byte("# header comment\n\n1.2.3.4\t5\n10.0.0.0/24\n")
	got := parseAddrLines(body)
	want := []string{"1.2.3.4", "10.0.0.0/24"}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parsed %v, want %v", got, want)
		}
	}
}

func TestAppendBenchRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_ledger.json")
	t.Setenv("BENCH_LEDGER", path)
	cfg := StackConfig{Seed: 48, Scale: 0.05}
	first := CheckLoadRow(cfg, 8, 3*time.Second, LoadResult{Requests: 100, RPS: 50, P99Ms: 4})
	second := CheckLoadRow(cfg, 4, time.Second, LoadResult{Requests: 40, Errors: 1, RPS: 40, P99Ms: 3})
	if first.Case != "concurrency=8/duration_sec=3" || second.Case != "concurrency=4/duration_sec=1" {
		t.Fatalf("check-load cases = %q, %q", first.Case, second.Case)
	}
	if err := obs.AppendBench(first); err != nil {
		t.Fatal(err)
	}
	if err := obs.AppendBench(second); err != nil {
		t.Fatal(err)
	}

	rows := readLedger(t, path)
	if len(rows) != 2 {
		t.Fatalf("ledger holds %d rows, want 2", len(rows))
	}
	for i, want := range []obs.BenchRow{first, second} {
		if !reflect.DeepEqual(unstamped(t, rows[i]), want) {
			t.Fatalf("row %d round-trip mismatch:\n got %+v\nwant %+v", i, rows[i], want)
		}
	}

	if err := os.WriteFile(path, []byte("{not an array"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := obs.AppendBench(first); err == nil {
		t.Fatal("AppendBench overwrote a malformed history")
	}
}
