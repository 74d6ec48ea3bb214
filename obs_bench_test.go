// Benchmark for the observability layer's overhead: the same crawl-dominated
// study as BenchmarkStudyParallel, once with instrumentation off (nil
// registry and tracer — the hot paths see only nil-receiver no-ops) and once
// with metrics and tracing fully on. The ledger rows pin the relative
// overhead, which must stay within a few percent.
package reuseblock_test

import (
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/core"
	"github.com/reuseblock/reuseblock/internal/obs"
)

// BenchmarkStudyObs measures the instrumented pipeline against the
// uninstrumented one and appends both timings plus the relative overhead
// to the bench ledger.
func BenchmarkStudyObs(b *testing.B) {
	wp := blgen.DefaultParams(1)
	w := blgen.Generate(wp)
	run := func(b *testing.B, instrument bool) {
		for i := 0; i < b.N; i++ {
			cfg := core.Config{
				Seed:          1,
				CrawlDuration: 6 * time.Hour,
				Vantages:      4,
			}
			if instrument {
				cfg.Obs = obs.NewRegistry()
				cfg.Trace = obs.NewTracer()
			}
			s := core.NewStudyFromWorld(w, cfg)
			if _, err := s.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
	nsPerOp := make(map[string]int64)
	for _, mode := range []struct {
		name       string
		instrument bool
	}{{"off", false}, {"on", true}} {
		mode := mode
		b.Run("obs="+mode.name, func(b *testing.B) {
			run(b, mode.instrument)
			nsPerOp[mode.name] = b.Elapsed().Nanoseconds() / int64(b.N)
		})
	}
	if nsPerOp["off"] == 0 || nsPerOp["on"] == 0 {
		return
	}
	overhead := float64(nsPerOp["on"]-nsPerOp["off"]) / float64(nsPerOp["off"]) * 100
	b.ReportMetric(overhead, "%overhead")
	row := func(mode string, metrics map[string]float64) obs.BenchRow {
		metrics["ns_per_op"] = float64(nsPerOp[mode])
		return obs.BenchRow{Bench: "BenchmarkStudyObs", Case: "vantages=4/crawl_hours=6/obs=" + mode,
			Layer: "obs", Seed: 1, Scale: wp.Scale, Metrics: metrics}
	}
	if err := obs.AppendBench(row("off", map[string]float64{}),
		row("on", map[string]float64{"overhead_pct": overhead})); err != nil {
		b.Fatal(err)
	}
}
