package e2e

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/obs"
)

// fastServer answers /v1/check for both GET (single) and POST (batch),
// recording per-method counts and the X-Forwarded-For values it saw.
type fastServer struct {
	gets, posts atomic.Int64
	mu          sync.Mutex
	forwarded   map[string]int
}

func (fs *fastServer) handler() http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if xff := r.Header.Get("X-Forwarded-For"); xff != "" {
			fs.mu.Lock()
			if fs.forwarded == nil {
				fs.forwarded = map[string]int{}
			}
			fs.forwarded[xff]++
			fs.mu.Unlock()
		}
		switch r.Method {
		case http.MethodGet:
			fs.gets.Add(1)
			w.Write([]byte(`{"ip":"1.2.3.4","listed":false}`))
		case http.MethodPost:
			fs.posts.Add(1)
			w.Write([]byte(`{"results":[]}`))
		default:
			http.Error(w, "method", http.StatusMethodNotAllowed)
		}
	}
}

func TestLoadGenMixedWorkload(t *testing.T) {
	fs := &fastServer{}
	ts := httptest.NewServer(fs.handler())
	defer ts.Close()

	res, err := LoadGen{
		BaseURL:       ts.URL,
		Targets:       []string{"1.2.3.4", "5.6.7.8"},
		Concurrency:   4,
		Duration:      150 * time.Millisecond,
		BatchFraction: 0.5,
		BatchSize:     10,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	gets, posts := int(fs.gets.Load()), int(fs.posts.Load())
	if gets == 0 || posts == 0 {
		t.Fatalf("mixed workload sent gets=%d posts=%d; want both > 0", gets, posts)
	}
	if res.Requests != gets+posts {
		t.Fatalf("result counts %d requests, server saw %d", res.Requests, gets+posts)
	}
	if res.Errors != 0 || res.Shed != 0 || res.MalformedShed != 0 {
		t.Fatalf("healthy server produced errors=%d shed=%d malformed=%d",
			res.Errors, res.Shed, res.MalformedShed)
	}
	if res.GoodputRPS <= 0 {
		t.Fatalf("goodput %v, want > 0", res.GoodputRPS)
	}
	cheap, heavy := res.PerClass["cheap"], res.PerClass["heavy"]
	if cheap.OK != gets || heavy.OK != posts {
		t.Fatalf("per-class OK cheap=%d heavy=%d; server saw gets=%d posts=%d",
			cheap.OK, heavy.OK, gets, posts)
	}
	// With a 0.5 fraction half the workers are batch clients, so against a
	// uniform-speed server the classes should be near-balanced; allow wide
	// slack since workers stop mid-cycle at the deadline.
	if heavy.Requests < res.Requests/4 || cheap.Requests < res.Requests/4 {
		t.Fatalf("class split cheap=%d heavy=%d of %d is too lopsided for fraction 0.5",
			cheap.Requests, heavy.Requests, res.Requests)
	}
	if cheap.P99Ms <= 0 || heavy.P99Ms <= 0 {
		t.Fatalf("per-class latency missing: cheap p99=%v heavy p99=%v", cheap.P99Ms, heavy.P99Ms)
	}
}

func TestLoadGenClassifiesWellFormedShed(t *testing.T) {
	// POSTs get the documented shed shape; GETs succeed.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			w.Write([]byte(`{"error":"overloaded: request shed","detail":"queue full"}` + "\n"))
			return
		}
		w.Write([]byte(`{"listed":false}`))
	}))
	defer ts.Close()

	res, err := LoadGen{
		BaseURL: ts.URL, Targets: []string{"1.2.3.4"},
		Concurrency: 2, Duration: 100 * time.Millisecond,
		BatchFraction: 0.5, BatchSize: 5,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Shed == 0 {
		t.Fatal("well-formed 429s were not counted as shed")
	}
	if res.MalformedShed != 0 || res.Errors != 0 {
		t.Fatalf("well-formed shed misclassified: malformed=%d errors=%d",
			res.MalformedShed, res.Errors)
	}
	if hs := res.PerClass["heavy"]; hs.Shed != res.Shed {
		t.Fatalf("heavy class shed %d, total %d; all shed should be batch", hs.Shed, res.Shed)
	}
}

func TestLoadGenFlagsMalformedShed(t *testing.T) {
	// 429 without Retry-After and without the Error JSON body: counts as
	// both malformed shed and an error.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "too many requests", http.StatusTooManyRequests)
	}))
	defer ts.Close()

	res, err := LoadGen{
		BaseURL: ts.URL, Targets: []string{"1.2.3.4"},
		Concurrency: 1, Duration: 50 * time.Millisecond,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.MalformedShed == 0 || res.Errors != res.MalformedShed {
		t.Fatalf("bare 429s: malformed=%d errors=%d; want equal and > 0",
			res.MalformedShed, res.Errors)
	}
	if res.Shed != 0 {
		t.Fatalf("bare 429s counted as well-formed shed: %d", res.Shed)
	}
}

func TestLoadGenClientMix(t *testing.T) {
	fs := &fastServer{}
	ts := httptest.NewServer(fs.handler())
	defer ts.Close()

	ips := []string{"100.64.9.9", "100.64.9.9", "203.0.113.5"}
	res, err := LoadGen{
		BaseURL: ts.URL, Targets: []string{"1.2.3.4"},
		Concurrency: 3, Duration: 80 * time.Millisecond,
		ClientIPs: ips,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.PerClient == nil {
		t.Fatal("ClientIPs set but PerClient missing")
	}
	// Two workers share the hot key, one gets the distinct address.
	hot, cold := res.PerClient["100.64.9.9"], res.PerClient["203.0.113.5"]
	if hot.Requests == 0 || cold.Requests == 0 {
		t.Fatalf("per-client split hot=%d cold=%d; want both > 0", hot.Requests, cold.Requests)
	}
	if hot.Requests+cold.Requests != res.Requests {
		t.Fatalf("per-client totals %d+%d != %d", hot.Requests, cold.Requests, res.Requests)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.forwarded["100.64.9.9"] != hot.Requests {
		t.Fatalf("server saw %d hot-key requests, result says %d",
			fs.forwarded["100.64.9.9"], hot.Requests)
	}
}

func TestLoadGenPerWorkerRPSPaces(t *testing.T) {
	fs := &fastServer{}
	ts := httptest.NewServer(fs.handler())
	defer ts.Close()

	res, err := LoadGen{
		BaseURL: ts.URL, Targets: []string{"1.2.3.4"},
		Concurrency: 1, Duration: 300 * time.Millisecond,
		PerWorkerRPS: 20,
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	// 20 rps for 0.3s ≈ 6 requests; a closed loop against a loopback
	// httptest server would do thousands. Allow generous slack for the
	// first unpaced request and scheduler jitter.
	if res.Requests > 15 {
		t.Fatalf("paced worker sent %d requests in 300ms at 20 rps; pacing is not applied",
			res.Requests)
	}
	if res.Requests == 0 {
		t.Fatal("paced worker sent nothing")
	}
}

func TestLoadGenValidation(t *testing.T) {
	base := LoadGen{BaseURL: "http://127.0.0.1:0", Targets: []string{"1.2.3.4"},
		Concurrency: 1, Duration: time.Millisecond}
	for name, lg := range map[string]LoadGen{
		"no targets":     {BaseURL: base.BaseURL, Concurrency: 1, Duration: time.Millisecond},
		"no concurrency": {BaseURL: base.BaseURL, Targets: base.Targets, Duration: time.Millisecond},
		"no duration":    {BaseURL: base.BaseURL, Targets: base.Targets, Concurrency: 1},
		"fraction > 1": {BaseURL: base.BaseURL, Targets: base.Targets, Concurrency: 1,
			Duration: time.Millisecond, BatchFraction: 1.5},
		"fraction < 0": {BaseURL: base.BaseURL, Targets: base.Targets, Concurrency: 1,
			Duration: time.Millisecond, BatchFraction: -0.1},
	} {
		if _, err := lg.Run(); err == nil {
			t.Errorf("%s: Run accepted an invalid config", name)
		}
	}
}

func TestRunRamp(t *testing.T) {
	fs := &fastServer{}
	ts := httptest.NewServer(fs.handler())
	defer ts.Close()

	lg := LoadGen{BaseURL: ts.URL, Targets: []string{"1.2.3.4"},
		Duration: 30 * time.Millisecond}
	results, err := lg.RunRamp([]int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("ramp returned %d results, want 2", len(results))
	}
	for i, res := range results {
		if res.Requests == 0 || res.Errors != 0 {
			t.Errorf("ramp step %d: requests=%d errors=%d", i, res.Requests, res.Errors)
		}
	}

	if _, err := lg.RunRamp([]int{1, 0}); err == nil {
		t.Fatal("ramp accepted a zero-concurrency step")
	}
}

func TestShedWellFormed(t *testing.T) {
	mk := func(retryAfter string) *http.Response {
		resp := &http.Response{Header: http.Header{}}
		if retryAfter != "" {
			resp.Header.Set("Retry-After", retryAfter)
		}
		return resp
	}
	good := []byte(`{"error":"overloaded: request shed"}`)
	for name, tc := range map[string]struct {
		resp *http.Response
		body []byte
		want bool
	}{
		"documented shape":    {mk("1"), good, true},
		"missing retry-after": {mk(""), good, false},
		"zero retry-after":    {mk("0"), good, false},
		"http-date retry":     {mk("Wed, 21 Oct 2026 07:28:00 GMT"), good, false},
		"not json":            {mk("1"), []byte("too many requests\n"), false},
		"empty error field":   {mk("1"), []byte(`{"error":""}`), false},
	} {
		if got := shedWellFormed(tc.resp, tc.body); got != tc.want {
			t.Errorf("%s: shedWellFormed = %v, want %v", name, got, tc.want)
		}
	}
}

func TestAppendShedBenchRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_ledger.json")
	t.Setenv("BENCH_LEDGER", path)
	row := OverloadRow(StackConfig{Seed: 48, Scale: 0.05}, 20, 1500*time.Millisecond, 900,
		LoadResult{Shed: 300}, LoadResult{GoodputRPS: 700, P99Ms: 12, Shed: 40})
	if row.Case != "concurrency=20/duration_sec=1.5" || row.Metrics["goodput_share"] != 700.0/900 ||
		row.Metrics["shed"] != 340 {
		t.Fatalf("overload row = %+v", row)
	}
	if err := obs.AppendBench(row); err != nil {
		t.Fatal(err)
	}
	if err := obs.AppendBench(row); err != nil {
		t.Fatal(err)
	}
	rows := readLedger(t, path)
	if len(rows) != 2 || !reflect.DeepEqual(unstamped(t, rows[0]), row) || !reflect.DeepEqual(unstamped(t, rows[1]), row) {
		t.Fatalf("shed bench round-trip mismatch: %+v", rows)
	}
}

func TestAppendRecordRejectsCorruptHistory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_ledger.json")
	t.Setenv("BENCH_LEDGER", path)
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	row := OverloadRow(StackConfig{}, 1, time.Second, 1, LoadResult{}, LoadResult{})
	if err := obs.AppendBench(row); err == nil {
		t.Fatal("append onto a corrupt history file did not error")
	}
	// The corrupt file must be left untouched for post-mortem, not clobbered.
	if data, _ := os.ReadFile(path); string(data) != "not json" {
		t.Fatalf("corrupt history was rewritten to %q", data)
	}
}

// readLedger parses the bench ledger at path.
func readLedger(t *testing.T, path string) []obs.BenchRow {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rows []obs.BenchRow
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	return rows
}

// unstamped checks that AppendBench stamped row and returns it with the
// stamps cleared, for comparison with the row as built.
func unstamped(t *testing.T, row obs.BenchRow) obs.BenchRow {
	t.Helper()
	if row.When == "" || row.Rev == "" || row.NumCPU == 0 || row.GOMAXPROCS == 0 {
		t.Errorf("row %s %s lacks provenance stamps: %+v", row.Bench, row.Case, row)
	}
	row.When, row.Rev, row.NumCPU, row.GOMAXPROCS = "", "", 0, 0
	return row
}
