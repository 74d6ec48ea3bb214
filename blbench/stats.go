package main

import (
	"errors"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile: a
// p99 over fewer than 1000 samples would be one or two unlucky requests.
const minBeyond = 10

// quantile is one reported percentile with the evidence behind it.
type quantile struct {
	Value   float64 // the percentile, in the samples' unit
	Samples int     // how many samples it was taken over
	Beyond  int     // how many of them lie strictly above it by rank
}

// percentile returns the nearest-rank q-quantile of sorted, with the number
// of samples ranked above it. sorted must be ascending and q in (0, 1].
func percentile(sorted []float64, q float64) quantile {
	n := len(sorted)
	if n == 0 {
		return quantile{}
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return quantile{Value: sorted[idx], Samples: n, Beyond: n - 1 - idx}
}

// errFewSamples reports a percentile with fewer than minBeyond samples above
// it in every window and overall.
var errFewSamples = errors.New("too few samples for the percentile")

// windowedPercentile reports the q-quantile of latency as the median of
// per-window q-quantiles, so one stalled second on a shared host moves the
// figure by one window instead of dragging the whole tail. Windows too small
// to put minBeyond samples above the quantile are skipped; when none
// qualifies the pooled samples are used if they do. Samples is the total
// over the windows used. Each window is sorted in place.
func windowedPercentile(windows [][]float64, q float64) (quantile, error) {
	var per, pooled []float64
	total, beyond := 0, 0
	for _, w := range windows {
		pooled = append(pooled, w...)
		sort.Float64s(w)
		p := percentile(w, q)
		if p.Beyond < minBeyond {
			continue
		}
		per = append(per, p.Value)
		total += p.Samples
		beyond += p.Beyond
	}
	if len(per) == 0 {
		sort.Float64s(pooled)
		p := percentile(pooled, q)
		if p.Beyond < minBeyond {
			return p, errFewSamples
		}
		return p, nil
	}
	return quantile{Value: median(per), Samples: total, Beyond: beyond}, nil
}

// median of xs (mean of the middle pair for even lengths); xs is sorted in
// place. Zero for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// tally counts attempted and failed operations. Transport errors, non-200
// answers, shed rejections, wrong verdicts and oracle violations are all
// failures; the first few are kept for the report.
type tally struct {
	attempted, failed int64
	examples          []string
}

// maxExamples bounds the failure descriptions a tally keeps.
const maxExamples = 8

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(why string) {
	t.attempted++
	t.failed++
	if len(t.examples) < maxExamples {
		t.examples = append(t.examples, why)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, e := range o.examples {
		if len(t.examples) < maxExamples {
			t.examples = append(t.examples, e)
		}
	}
}

// failedFrac is failed over attempted operations; 0 when nothing ran.
func (t tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// busyRatio is CPU time over the CPU time procs processors could have given
// in wall seconds: 1 means every processor was busy throughout, 1/procs
// that the work ran on one processor at a time.
func busyRatio(cpuSec, wallSec float64, procs int) float64 {
	if wallSec <= 0 || procs <= 0 {
		return 0
	}
	return cpuSec / (wallSec * float64(procs))
}

// recall is found over wanted, or 1 when nothing was there to find.
func recall(found, wanted int) float64 {
	if wanted == 0 {
		return 1
	}
	return float64(found) / float64(wanted)
}
