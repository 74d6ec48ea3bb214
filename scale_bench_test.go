// Paper-scale world tests and the footprint ratchet.
//
// The compact core exists for one reason: the paper's observed population is
// millions of addresses, and the original simulator spent ~11 KiB of heap
// per host — a multi-million-host world did not fit in RAM alongside the
// crawler. These tests pin the three properties the compact core claims:
//
//   - TestScale*: sharded + compact runs stay deterministic and
//     scheduling-invariant, and streamed artifacts are byte-equal to the
//     batch writers while using bounded memory.
//   - BenchmarkStudyScale: measures hosts/sec, bytes/host and peak heap at
//     world scales 1/10/100 and appends the rows to the bench ledger; the
//     per-host footprint must undercut the pre-refactor baseline by >= 5x
//     at scale >= 10 or the benchmark fails (the ratchet).
package reuseblock_test

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/blocklist"
	"github.com/reuseblock/reuseblock/internal/core"
	"github.com/reuseblock/reuseblock/internal/crawler"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/obs"
)

// renderScaleStudy runs a small sharded, compact-state study and returns the
// rendered report.
func renderScaleStudy(t *testing.T, seed int64, shards, workers int) (*core.Study, string) {
	t.Helper()
	wp := blgen.DefaultParams(seed)
	wp.Scale = 0.05
	s := core.NewStudy(core.Config{
		Seed:          seed,
		World:         &wp,
		CrawlDuration: 2 * time.Hour,
		Vantages:      2,
		Workers:       workers,
		Shards:        shards,
		Compact:       true,
		SkipICMP:      true,
	})
	rep, err := s.Run()
	if err != nil {
		t.Fatalf("seed %d shards %d workers %d: %v", seed, shards, workers, err)
	}
	return s, rep.Render()
}

// TestScaleShardedStudySmoke: the scale configuration (sharded fabric,
// compact node state) must still crawl a world end to end and confirm NATed
// addresses — the fast gate run under -race in CI.
func TestScaleShardedStudySmoke(t *testing.T) {
	s, _ := renderScaleStudy(t, 1, 4, 2)
	if s.CrawlStats.UniqueIPs == 0 {
		t.Fatal("sharded compact crawl observed no addresses")
	}
	if len(s.NATed) == 0 {
		t.Fatal("sharded compact crawl confirmed no NATed addresses")
	}
}

// TestScaleShardedWorkerInvariance: a sharded run is a pure function of
// (seed, shard count) — the vantage fan-out worker pool and the intra-window
// shard worker pool must both be invisible in the output bytes.
func TestScaleShardedWorkerInvariance(t *testing.T) {
	_, seq := renderScaleStudy(t, 1, 4, 1)
	_, par := renderScaleStudy(t, 1, 4, 4)
	if seq != par {
		t.Errorf("sharded study workers=4 diverged from workers=1 at %s", firstDiff(seq, par))
	}
}

// TestScaleShardedRepeatable: same configuration twice, identical bytes.
func TestScaleShardedRepeatable(t *testing.T) {
	_, a := renderScaleStudy(t, 2, 4, 2)
	_, b := renderScaleStudy(t, 2, 4, 2)
	if a != b {
		t.Errorf("sharded study not repeatable: diverges at %s", firstDiff(a, b))
	}
}

// TestScaleStreamingMatchesBatch: the streamed artifact chunks must
// concatenate to exactly the batch writers' bytes — the NATed list to
// blocklist.WriteNATedList, the observed list to one address per line — and
// every chunk must respect the window bound.
func TestScaleStreamingMatchesBatch(t *testing.T) {
	s, _ := renderScaleStudy(t, 1, 1, 2)
	const header = "reuseblock NATed addresses"
	const window = 7 // deliberately tiny and odd so chunking is exercised

	var streamedNATed, streamedObserved bytes.Buffer
	maxChunk := 0
	sink := core.ArtifactSink{
		NATedHeader: header,
		NATedList: func(chunk []byte) error {
			if n := bytes.Count(chunk, []byte("\n")); n > window+1 { // +1 header
				t.Errorf("NATed chunk has %d lines, window is %d", n, window)
			}
			if len(chunk) > maxChunk {
				maxChunk = len(chunk)
			}
			streamedNATed.Write(chunk)
			return nil
		},
		ObservedIPs: func(chunk []byte) error {
			if n := bytes.Count(chunk, []byte("\n")); n > window {
				t.Errorf("observed chunk has %d lines, window is %d", n, window)
			}
			streamedObserved.Write(chunk)
			return nil
		},
	}
	if err := s.StreamArtifacts(sink, window); err != nil {
		t.Fatal(err)
	}

	users := make(map[iputil.Addr]int, len(s.NATed))
	for _, o := range s.NATed {
		users[o.Addr] = o.Users
	}
	var batch bytes.Buffer
	if err := blocklist.WriteNATedList(&batch, users, header); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamedNATed.Bytes(), batch.Bytes()) {
		t.Errorf("streamed NATed list diverges from batch bytes at %s",
			firstDiff(streamedNATed.String(), batch.String()))
	}
	var batchObs bytes.Buffer
	for _, a := range s.BTObserved.Sorted() {
		fmt.Fprintf(&batchObs, "%s\n", a)
	}
	if !bytes.Equal(streamedObserved.Bytes(), batchObs.Bytes()) {
		t.Errorf("streamed observed list diverges from batch bytes at %s",
			firstDiff(streamedObserved.String(), batchObs.String()))
	}
	if streamedNATed.Len() == 0 || streamedObserved.Len() == 0 {
		t.Fatal("streaming produced empty artifacts")
	}
}

// syntheticStudy builds a Study holding n synthetic NAT observations and n
// observed addresses — artifact-emission input without the cost of a crawl.
func syntheticStudy(n int) *core.Study {
	base := time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC)
	s := &core.Study{BTObserved: iputil.NewSet()}
	for i := 0; i < n; i++ {
		a := iputil.Addr(0x0b000000 + uint32(i)*3)
		s.NATed = append(s.NATed, crawler.NATObservation{
			Addr: a, Users: 2 + i%7, PortsSeen: 1 + i%13, FirstConfirmed: base,
		})
		s.BTObserved.Add(a)
	}
	return s
}

// TestScaleStreamingMemorySublinear: emitting artifacts through the
// streaming path must allocate O(window) regardless of artifact size, while
// the batch path's cost is the artifact itself. Measured via
// runtime.MemStats.TotalAlloc, which is monotonic and GC-independent.
func TestScaleStreamingMemorySublinear(t *testing.T) {
	const n = 300_000
	s := syntheticStudy(n)
	discard := func(chunk []byte) error { return nil }
	sink := core.ArtifactSink{NATedHeader: "x", NATedList: discard, ObservedIPs: discard}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := s.StreamArtifacts(sink, 0); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	streamed := after.TotalAlloc - before.TotalAlloc

	users := make(map[iputil.Addr]int, n)
	for _, o := range s.NATed {
		users[o.Addr] = o.Users
	}
	runtime.ReadMemStats(&before)
	var batch bytes.Buffer
	if err := blocklist.WriteNATedList(&batch, users, "x"); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	batchAllocs := after.TotalAlloc - before.TotalAlloc

	t.Logf("n=%d: streamed %d bytes allocated, batch %d (artifact %d bytes)",
		n, streamed, batchAllocs, batch.Len())
	// The streamed path may allocate a few window buffers; it must stay far
	// below the artifact size, which the batch path necessarily reaches.
	if streamed > uint64(batch.Len())/4 {
		t.Errorf("streaming allocated %d bytes for a %d-byte artifact — not sublinear",
			streamed, batch.Len())
	}
	if batchAllocs < uint64(batch.Len()) {
		t.Fatalf("batch baseline allocated %d bytes for a %d-byte artifact — measurement broken",
			batchAllocs, batch.Len())
	}
}

// ---------------------------------------------------------------------------
// Footprint ratchet
// ---------------------------------------------------------------------------

// Pre-refactor per-host heap footprints, measured on commit e9c9148 (before
// internal/ipset, pooled node/NAT/binding state, the compact RNG and the
// sharded event loop): BuildSwarm(Seed 1) heap delta over host count.
const (
	baselineBytesPerHostScale1  = 11269
	baselineBytesPerHostScale10 = 11260
	// scaleRatchetFactor is the required improvement at scale >= 10.
	scaleRatchetFactor = 5
)

// measureScale builds the compact, sharded swarm for one world scale,
// measures its heap footprint, runs 30 simulated minutes, and enforces the
// footprint ratchet.
func measureScale(b *testing.B, scale float64) obs.BenchRow {
	b.Helper()
	wp := blgen.DefaultParams(1)
	wp.Scale = scale
	w := blgen.Generate(wp)
	hosts := len(w.BTUsers)
	if hosts == 0 {
		b.Fatal("empty world")
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	buildStart := time.Now()
	swarm, err := core.BuildSwarm(w, core.SwarmConfig{
		Seed:         1,
		Compact:      true,
		Shards:       4,
		ShardWorkers: runtime.GOMAXPROCS(0),
	}, nil)
	if err != nil {
		b.Fatal(err)
	}
	buildSec := time.Since(buildStart).Seconds()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	// The world must stay live through both readings so the heap delta is
	// the swarm alone (otherwise the second GC collects the world and the
	// unsigned delta underflows).
	runtime.KeepAlive(w)
	bytesPerHost := float64(int64(m1.HeapAlloc)-int64(m0.HeapAlloc)) / float64(hosts)

	runStart := time.Now()
	swarm.RunFor(30 * time.Minute)
	runSec := time.Since(runStart).Seconds()
	runtime.KeepAlive(swarm)

	baseline := float64(baselineBytesPerHostScale1)
	if scale >= 10 {
		baseline = baselineBytesPerHostScale10
	}
	ratio := baseline / bytesPerHost
	if scale >= 10 && ratio < scaleRatchetFactor {
		b.Fatalf("bytes/host = %.0f at scale %g — only %.1fx under the %.0f pre-refactor baseline, ratchet requires %dx",
			bytesPerHost, scale, ratio, baseline, scaleRatchetFactor)
	}
	return obs.BenchRow{
		Bench: "BenchmarkStudyScale",
		Case:  "shards=4",
		Layer: "core",
		Seed:  1,
		Scale: scale,
		Metrics: map[string]float64{
			"hosts":                   float64(hosts),
			"build_sec":               buildSec,
			"run30m_sec":              runSec,
			"hosts_per_sec":           float64(hosts) / (buildSec + runSec),
			"bytes_per_host":          bytesPerHost,
			"peak_alloc_bytes":        float64(m1.HeapAlloc),
			"baseline_bytes_per_host": baseline,
			"footprint_ratio":         ratio,
		},
	}
}

// BenchmarkStudyScale is the paper-scale ratchet: world scales 1, 10 and 100
// (roughly 8 K, 95 K and 950 K live hosts). Each sub-benchmark performs one
// full measurement regardless of b.N — run with -benchtime=1x, as the
// nightly job does — and the rows of the scales that passed the ratchet are
// appended to the bench ledger once all have run (set SCALE_BENCH_MAX to cap
// the largest scale for quick local runs).
func BenchmarkStudyScale(b *testing.B) {
	maxScale := 100.0
	if v := os.Getenv("SCALE_BENCH_MAX"); v != "" {
		fmt.Sscanf(v, "%g", &maxScale)
	}
	var rows []obs.BenchRow
	for _, scale := range []float64{1, 10, 100} {
		if scale > maxScale {
			continue
		}
		scale := scale
		var row obs.BenchRow
		b.Run(fmt.Sprintf("scale=%g", scale), func(b *testing.B) {
			row = measureScale(b, scale)
			m := row.Metrics
			b.ReportMetric(m["hosts_per_sec"], "hosts/s")
			b.ReportMetric(m["bytes_per_host"], "bytes/host")
			b.ReportMetric(m["peak_alloc_bytes"]/(1<<20), "peak-MiB")
			b.Logf("scale=%g: %.0f hosts, %.0f bytes/host (%.1fx under baseline), build %.1fs, run30m %.1fs",
				scale, m["hosts"], m["bytes_per_host"], m["footprint_ratio"], m["build_sec"], m["run30m_sec"])
		})
		if row.Metrics != nil {
			rows = append(rows, row)
		}
	}
	if err := obs.AppendBench(rows...); err != nil {
		b.Fatal(err)
	}
}
