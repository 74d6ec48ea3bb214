// Benchmarks for the serving layer rebuild: the compiled-snapshot reuseapi
// server against a benchmark-local replica of the pre-snapshot design (RWMutex
// around a map dataset, per-request url.Values parsing, a 33-probe covering
// loop, json.Encoder verdicts, and per-request list rendering). Each
// benchmark appends its rows to the bench ledger once its sub-benchmarks
// have run, and fails when a gated speedup falls under its factor.
package reuseblock_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/blocklist"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/obs"
	"github.com/reuseblock/reuseblock/internal/reuseapi"
)

const (
	serveBenchAddrs    = 100_000
	serveBenchPrefixes = 512

	// checkSpeedupFactor is the least /v1/check speedup of the snapshot
	// over the locked-map replica at serveBenchAddrs addresses.
	checkSpeedupFactor = 5
	// deltaSpeedupFactor is the least speedup of ApplyDelta over a full
	// Compile at scale 10 — that gap is why the reloader diffs at all.
	deltaSpeedupFactor = 5
)

// serveBenchDataset builds the fixed 100k-address dataset both server
// variants serve. Deterministic so the two variants answer identically.
func serveBenchDataset() *reuseapi.Dataset {
	return serveBenchDatasetSized(serveBenchAddrs, serveBenchPrefixes)
}

func serveBenchDatasetSized(addrs, prefixes int) *reuseapi.Dataset {
	rng := rand.New(rand.NewSource(7))
	data := &reuseapi.Dataset{
		NATUsers:        make(map[iputil.Addr]int, addrs),
		DynamicPrefixes: iputil.NewPrefixSet(),
		Generated:       time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC),
	}
	for len(data.NATUsers) < addrs {
		a := iputil.AddrFrom4(byte(1+rng.Intn(220)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		data.NATUsers[a] = 2 + rng.Intn(400)
	}
	for i := 0; i < prefixes; i++ {
		a := iputil.AddrFrom4(byte(1+rng.Intn(220)), byte(rng.Intn(256)), byte(rng.Intn(256)), 0)
		data.DynamicPrefixes.Add(iputil.PrefixFrom(a, 16+rng.Intn(9)))
	}
	return data
}

// serveBenchRequests is a fixed query mix against the dataset: NATed hits,
// dynamic-prefix hits, and clean misses, pre-built so request construction is
// out of the measured loop.
func serveBenchRequests(data *reuseapi.Dataset) []*http.Request {
	rng := rand.New(rand.NewSource(11))
	var addrs []iputil.Addr
	for a := range data.NATUsers {
		addrs = append(addrs, a)
		if len(addrs) == 256 {
			break
		}
	}
	for _, p := range data.DynamicPrefixes.Sorted()[:64] {
		addrs = append(addrs, p.Nth(0))
	}
	for i := 0; i < 192; i++ {
		addrs = append(addrs, iputil.AddrFrom4(byte(1+rng.Intn(220)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256))))
	}
	reqs := make([]*http.Request, len(addrs))
	for i, a := range addrs {
		reqs[i] = httptest.NewRequest(http.MethodGet, "/v1/check?ip="+a.String(), nil)
	}
	return reqs
}

// lockedServer replicates the pre-snapshot serving design for comparison:
// every request takes an RWMutex read lock, /v1/check parses url.Values,
// probes all 33 prefix lengths against the PrefixSet map and runs a verdict
// through json.Encoder, and /v1/list re-collects, re-sorts and re-renders the
// whole dataset per request.
type lockedServer struct {
	mu   sync.RWMutex
	data *reuseapi.Dataset
}

func (s *lockedServer) snapshot() *reuseapi.Dataset {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data
}

func (s *lockedServer) handleCheck(w http.ResponseWriter, r *http.Request) {
	ipStr := r.URL.Query().Get("ip")
	addr, err := iputil.ParseAddr(ipStr)
	if err != nil {
		http.Error(w, "malformed ip", http.StatusBadRequest)
		return
	}
	data := s.snapshot()
	v := reuseapi.Verdict{IP: addr.String()}
	if users, ok := data.NATUsers[addr]; ok {
		v.Reused, v.NATed, v.Users = true, true, users
	}
	for bits := 32; bits >= 0; bits-- {
		p := iputil.PrefixFrom(addr, bits)
		if data.DynamicPrefixes.Contains(p) {
			v.Reused, v.Dynamic, v.Prefix = true, true, p.String()
			break
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (s *lockedServer) handleList(w http.ResponseWriter, r *http.Request) {
	data := s.snapshot()
	addrs := iputil.NewSet()
	for a := range data.NATUsers {
		addrs.Add(a)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_ = blocklist.WritePlain(w, addrs,
		fmt.Sprintf("NATed reused addresses, generated %s", data.Generated.UTC().Format(time.RFC3339)))
}

func (s *lockedServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/check", s.handleCheck)
	mux.HandleFunc("/v1/list", s.handleList)
	return mux
}

// benchRW is a no-op ResponseWriter so the benchmarks measure handler cost,
// not recorder bookkeeping.
type benchRW struct{ h http.Header }

func (w *benchRW) Header() http.Header         { return w.h }
func (w *benchRW) Write(p []byte) (int, error) { return len(p), nil }
func (w *benchRW) WriteHeader(int)             {}

// serveRow is one serving benchmark's ledger row for a server variant.
func serveRow(bench, variant string, metrics map[string]float64) obs.BenchRow {
	return obs.BenchRow{
		Bench:   bench,
		Case:    fmt.Sprintf("addrs=%d/prefixes=%d/variant=%s", serveBenchAddrs, serveBenchPrefixes, variant),
		Layer:   "reuseapi",
		Metrics: metrics,
	}
}

// variantRows turns the measured ns/op (and allocs/op, when given) of the
// locked-map replica and the snapshot into ledger rows. The snapshot row
// carries its speedup over the replica, which is also returned (0 unless
// both ran).
func variantRows(bench string, nsPerOp map[string]int64, allocs map[string]float64) ([]obs.BenchRow, float64) {
	var rows []obs.BenchRow
	speedup := 0.0
	for _, v := range []string{"locked_map", "snapshot"} {
		ns, ok := nsPerOp[v]
		if !ok {
			continue
		}
		m := map[string]float64{"ns_per_op": float64(ns)}
		if a, ok := allocs[v]; ok {
			m["allocs_per_op"] = a
		}
		if locked := nsPerOp["locked_map"]; v == "snapshot" && locked > 0 {
			speedup = float64(locked) / float64(ns)
			m["speedup_vs_locked_map"] = speedup
		}
		rows = append(rows, serveRow(bench, v, m))
	}
	return rows, speedup
}

// BenchmarkServeCheck drives the /v1/check query mix through the locked-map
// replica and the compiled-snapshot server, plus the batch POST endpoint,
// and records per-request timings and allocations. The snapshot must answer
// at least checkSpeedupFactor times faster than the replica.
func BenchmarkServeCheck(b *testing.B) {
	data := serveBenchDataset()
	reqs := serveBenchRequests(data)
	nsPerOp, allocs := map[string]int64{}, map[string]float64{}
	var batchNsPerIP int64

	measure := func(name string, h http.Handler) {
		b.Run(name, func(b *testing.B) {
			w := &benchRW{h: make(http.Header, 4)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.ServeHTTP(w, reqs[i%len(reqs)])
			}
			b.StopTimer()
			nsPerOp[name] = b.Elapsed().Nanoseconds() / int64(b.N)
			allocs[name] = testing.AllocsPerRun(1000, func() {
				h.ServeHTTP(w, reqs[0])
			})
		})
	}

	locked := &lockedServer{data: data}
	measure("locked_map", locked.handler())
	measure("snapshot", reuseapi.NewServer(data).Handler())

	b.Run("snapshot-batch", func(b *testing.B) {
		h := reuseapi.NewServer(data).Handler()
		var ips []string
		for _, r := range reqs[:100] {
			ips = append(ips, r.URL.Query().Get("ip"))
		}
		payload, err := json.Marshal(ips)
		if err != nil {
			b.Fatal(err)
		}
		w := &benchRW{h: make(http.Header, 4)}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := httptest.NewRequest(http.MethodPost, "/v1/check", bytes.NewReader(payload))
			h.ServeHTTP(w, r)
		}
		b.StopTimer()
		batchNsPerIP = b.Elapsed().Nanoseconds() / int64(b.N) / int64(len(ips))
		b.ReportMetric(float64(batchNsPerIP), "ns/ip")
	})

	rows, speedup := variantRows("BenchmarkServeCheck", nsPerOp, allocs)
	if speedup > 0 && speedup < checkSpeedupFactor {
		b.Fatalf("/v1/check snapshot is only %.1fx faster than the locked-map replica; the gate requires %dx",
			speedup, checkSpeedupFactor)
	}
	if batchNsPerIP > 0 {
		rows = append(rows, serveRow("BenchmarkServeCheck", "snapshot-batch",
			map[string]float64{"ns_per_ip": float64(batchNsPerIP)}))
	}
	if err := obs.AppendBench(rows...); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServeList measures the full-list endpoint: the locked replica
// re-sorts and re-renders 100k addresses per request; the snapshot serves
// precomputed bytes.
func BenchmarkServeList(b *testing.B) {
	data := serveBenchDataset()
	req := httptest.NewRequest(http.MethodGet, "/v1/list", nil)

	// Keep the replica honest: its per-request render must match the
	// snapshot's precomputed body byte for byte.
	locked := &lockedServer{data: data}
	snap := reuseapi.NewServer(data).Handler()
	wantW, gotW := httptest.NewRecorder(), httptest.NewRecorder()
	locked.handler().ServeHTTP(wantW, req)
	snap.ServeHTTP(gotW, httptest.NewRequest(http.MethodGet, "/v1/list", nil))
	if !bytes.Equal(wantW.Body.Bytes(), gotW.Body.Bytes()) {
		b.Fatal("locked-map replica and snapshot render different /v1/list bodies")
	}

	nsPerOp := map[string]int64{}
	for _, v := range []struct {
		name string
		h    http.Handler
	}{{"locked_map", locked.handler()}, {"snapshot", snap}} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			w := &benchRW{h: make(http.Header, 4)}
			b.ReportAllocs()
			b.SetBytes(int64(len(wantW.Body.Bytes())))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.h.ServeHTTP(w, req)
			}
			b.StopTimer()
			nsPerOp[v.name] = b.Elapsed().Nanoseconds() / int64(b.N)
		})
	}

	rows, _ := variantRows("BenchmarkServeList", nsPerOp, nil)
	if err := obs.AppendBench(rows...); err != nil {
		b.Fatal(err)
	}
}

// serveBenchDelta is the reload churn a watch tick typically carries: one
// provider's pool turns over — every tracked address in two /8s is dropped,
// about as many fresh ones appear in one of them — plus a little prefix
// movement. Clustered on purpose: that locality is what the segment-level
// splicing in ApplyDelta exploits, and what real churn looks like.
func serveBenchDelta(data *reuseapi.Dataset) *reuseapi.Delta {
	rng := rand.New(rand.NewSource(13))
	delta := &reuseapi.Delta{
		AddNAT:    map[iputil.Addr]int{},
		Generated: data.Generated.Add(time.Hour),
	}
	for a := range data.NATUsers {
		if top := byte(a >> 24); top == 100 || top == 101 {
			delta.RemoveNAT = append(delta.RemoveNAT, a)
		}
	}
	cluster := iputil.AddrFrom4(100, 0, 0, 0)
	for i := 0; i < len(data.NATUsers)/100; i++ {
		delta.AddNAT[cluster|iputil.Addr(rng.Intn(1<<24))] = 2 + rng.Intn(400)
	}
	prefixes := data.DynamicPrefixes.Sorted()
	delta.RemovePrefixes = prefixes[:2]
	delta.AddPrefixes = []iputil.Prefix{
		iputil.PrefixFrom(cluster, 12),
		iputil.PrefixFrom(iputil.AddrFrom4(100, 64, 0, 0), 14),
	}
	return delta
}

// BenchmarkServeDeltaReload prices a hot reload both ways at two world
// scales: the full recompile the classic -watch path pays versus the
// incremental ApplyDelta the diffing reloader pays for the same churn. The
// speedup at scale 10 must stay at least deltaSpeedupFactor.
func BenchmarkServeDeltaReload(b *testing.B) {
	var rows []obs.BenchRow
	for _, sc := range []struct{ scale, addrs, prefixes int }{
		{1, 10_000, 64},
		{10, 100_000, 512},
	} {
		base := serveBenchDatasetSized(sc.addrs, sc.prefixes)
		delta := serveBenchDelta(base)
		next := delta.ApplyTo(base)
		snap := reuseapi.Compile(base)

		// Keep the comparison honest: the two paths must produce the same
		// served bytes before their costs are worth comparing.
		wantBodies := reuseapi.Compile(next).PrecomputedBodies()
		gotBodies := snap.ApplyDelta(delta).PrecomputedBodies()
		for name, w := range wantBodies {
			if g := gotBodies[name]; !bytes.Equal(g.Body, w.Body) || !bytes.Equal(g.Gzip, w.Gzip) || g.ETag != w.ETag {
				b.Fatalf("scale %d: ApplyDelta and full Compile disagree on %s", sc.scale, name)
			}
		}

		var fullNs, deltaNs int64
		b.Run(fmt.Sprintf("scale%d/full_compile", sc.scale), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = reuseapi.Compile(next)
			}
			b.StopTimer()
			fullNs = b.Elapsed().Nanoseconds() / int64(b.N)
		})
		b.Run(fmt.Sprintf("scale%d/apply_delta", sc.scale), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = snap.ApplyDelta(delta)
			}
			b.StopTimer()
			deltaNs = b.Elapsed().Nanoseconds() / int64(b.N)
		})

		if fullNs == 0 || deltaNs == 0 {
			continue
		}
		speedup := float64(fullNs) / float64(deltaNs)
		if sc.scale == 10 && speedup < deltaSpeedupFactor {
			b.Fatalf("scale 10: ApplyDelta is only %.1fx faster than a full Compile; the gate requires %dx",
				speedup, deltaSpeedupFactor)
		}
		rows = append(rows, obs.BenchRow{
			Bench: "BenchmarkServeDeltaReload",
			Case:  fmt.Sprintf("addrs=%d/prefixes=%d", sc.addrs, sc.prefixes),
			Layer: "reuseapi",
			Scale: float64(sc.scale),
			Metrics: map[string]float64{
				"delta_ops":              float64(delta.Ops()),
				"full_compile_ns_per_op": float64(fullNs),
				"apply_delta_ns_per_op":  float64(deltaNs),
				"speedup":                speedup,
			},
		})
	}
	if err := obs.AppendBench(rows...); err != nil {
		b.Fatal(err)
	}
}
