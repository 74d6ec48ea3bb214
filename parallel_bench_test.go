// Benchmark for the parallel study pipeline: the same multi-vantage study
// at 1/2/4/8 workers. Wall-clock scaling depends on the host's CPU count
// (a single-CPU runner shows ~1x regardless of workers), so every ledger
// row carries num_cpu and GOMAXPROCS beside the timings.
package reuseblock_test

import (
	"fmt"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/core"
	"github.com/reuseblock/reuseblock/internal/obs"
)

// BenchmarkStudyParallel runs the crawl-dominated study (4 vantages, 6h of
// simulated time, default-scale world) at increasing worker counts and
// appends the scaling curve to the bench ledger.
func BenchmarkStudyParallel(b *testing.B) {
	wp := blgen.DefaultParams(1)
	w := blgen.Generate(wp)
	counts := []int{1, 2, 4, 8}
	nsPerOp := make(map[int]int64)
	for _, workers := range counts {
		workers := workers
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := core.NewStudyFromWorld(w, core.Config{
					Seed:          1,
					CrawlDuration: 6 * time.Hour,
					Vantages:      4,
					Workers:       workers,
					SkipICMP:      false,
				})
				if _, err := s.Run(); err != nil {
					b.Fatal(err)
				}
			}
			nsPerOp[workers] = b.Elapsed().Nanoseconds() / int64(b.N)
		})
	}
	var rows []obs.BenchRow
	for _, workers := range counts {
		ns := nsPerOp[workers]
		if ns == 0 {
			continue
		}
		metrics := map[string]float64{"ns_per_op": float64(ns)}
		if base := nsPerOp[1]; base > 0 {
			metrics["speedup_vs_workers1"] = float64(base) / float64(ns)
		}
		rows = append(rows, obs.BenchRow{
			Bench:   "BenchmarkStudyParallel",
			Case:    fmt.Sprintf("vantages=4/crawl_hours=6/workers=%d", workers),
			Layer:   "core",
			Seed:    1,
			Scale:   wp.Scale,
			Metrics: metrics,
		})
	}
	if err := obs.AppendBench(rows...); err != nil {
		b.Fatal(err)
	}
}
