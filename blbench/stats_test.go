package main

import (
	"errors"
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n          int
		q          float64
		want       float64
		wantBeyond int
	}{
		{n: 1, q: 0.5, want: 1, wantBeyond: 0},
		{n: 4, q: 0.5, want: 2, wantBeyond: 2},
		{n: 100, q: 0.99, want: 99, wantBeyond: 1},
		{n: 1000, q: 0.99, want: 990, wantBeyond: 10},
		{n: 1000, q: 1, want: 1000, wantBeyond: 0},
	} {
		got := percentile(seq(tc.n), tc.q)
		if got.Value != tc.want || got.Beyond != tc.wantBeyond || got.Samples != tc.n {
			t.Errorf("percentile(1..%d, %v) = %+v, want value %v, %d beyond, %d samples",
				tc.n, tc.q, got, tc.want, tc.wantBeyond, tc.n)
		}
	}
	if got := percentile(nil, 0.5); got != (quantile{}) {
		t.Errorf("percentile(nil) = %+v, want zero", got)
	}
}

func TestWindowedPercentileTakesMedianOfWindows(t *testing.T) {
	// Three windows of 1000 samples; one has a stalled tail. The median
	// window decides, so the stall moves the p99 by one window only.
	calm := seq(1000)
	stalled := seq(1000)
	for i := 980; i < 1000; i++ {
		stalled[i] = 1e6
	}
	got, err := windowedPercentile([][]float64{calm, stalled, seq(1000)}, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != 990 || got.Samples != 3000 {
		t.Errorf("got %+v, want p99 990 over 3000 samples", got)
	}
}

func TestWindowedPercentileNeedsTenBeyond(t *testing.T) {
	// 500 samples per window cannot put ten samples above a p99, but the
	// pooled 1500 can.
	got, err := windowedPercentile([][]float64{seq(500), seq(500), seq(500)}, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if got.Samples != 1500 || got.Beyond < minBeyond {
		t.Errorf("got %+v, want the pooled percentile over 1500 samples", got)
	}
	if _, err := windowedPercentile([][]float64{seq(300)}, 0.99); !errors.Is(err, errFewSamples) {
		t.Errorf("p99 over 300 samples: err %v, want errFewSamples", err)
	}
	// Failures are +Inf samples: they sort last and land in the tail.
	w := seq(1000)
	for i := 0; i < 20; i++ {
		w[i] = math.Inf(1)
	}
	got, err = windowedPercentile([][]float64{w}, 0.99)
	if err != nil || !math.IsInf(got.Value, 1) {
		t.Errorf("p99 with 2%% failures = %+v, %v; want +Inf", got, err)
	}
}

func TestTallyFailedFrac(t *testing.T) {
	var tl tally
	if got := tl.failedFrac(); got != 0 {
		t.Errorf("empty tally failedFrac = %v, want 0", got)
	}
	for i := 0; i < 6; i++ {
		tl.ok()
	}
	for i := 0; i < 2*maxExamples; i++ {
		tl.fail("wrong verdict")
	}
	if tl.attempted != 6+2*maxExamples || tl.failed != 2*maxExamples {
		t.Errorf("tally = %d attempted, %d failed", tl.attempted, tl.failed)
	}
	if len(tl.examples) != maxExamples {
		t.Errorf("kept %d examples, want %d", len(tl.examples), maxExamples)
	}
	var sum tally
	sum.ok()
	sum.add(tl)
	if want := float64(2*maxExamples) / float64(7+2*maxExamples); sum.failedFrac() != want {
		t.Errorf("merged failedFrac = %v, want %v", sum.failedFrac(), want)
	}
}

func TestBusyRatio(t *testing.T) {
	for _, tc := range []struct {
		cpu, wall float64
		procs     int
		want      float64
	}{
		{cpu: 20, wall: 10, procs: 2, want: 1},   // both processors busy throughout
		{cpu: 10, wall: 10, procs: 2, want: 0.5}, // one at a time
		{cpu: 5, wall: 10, procs: 1, want: 0.5},
		{cpu: 5, wall: 0, procs: 2, want: 0},
		{cpu: 5, wall: 10, procs: 0, want: 0},
	} {
		if got := busyRatio(tc.cpu, tc.wall, tc.procs); got != tc.want {
			t.Errorf("busyRatio(%v, %v, %d) = %v, want %v", tc.cpu, tc.wall, tc.procs, got, tc.want)
		}
	}
}

func TestMedianAndRecall(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	if got := recall(3, 4); got != 0.75 {
		t.Errorf("recall(3, 4) = %v", got)
	}
	if got := recall(0, 0); got != 1 {
		t.Errorf("recall with nothing to find = %v, want 1", got)
	}
}
