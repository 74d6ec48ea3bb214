package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/obs"
	"github.com/reuseblock/reuseblock/internal/reuseapi"
	"github.com/reuseblock/reuseblock/internal/shed"
)

// Serving-workload settings.
const (
	serveBoots    = 3                      // set-up samples per serving run
	churnCadence  = time.Second            // one rewrite of the inputs per cadence
	watchInterval = 100 * time.Millisecond // blserve -watch-interval under churn
)

// servePhase is one boot of blserve over a dataset plus its measured load.
type servePhase struct {
	files    inputFiles
	base     *reuseapi.Dataset // the initial dataset, as parsed from files
	nated    []byte            // initial file bytes
	dynamic  []byte
	queries  []checkQuery
	batches  []batchQuery
	churn    *churnPlan // nil: no rewrites, two check connections
	boots    int
	duration time.Duration

	// Filled by the load under churn, for checkLists.
	lists   []seenList  // each /v1/list representation fetched
	written []time.Time // when each churn step was written
}

// serveOutcome is what one serving phase measured.
type serveOutcome struct {
	tally
	setupS         float64
	peakRSSMB      float64
	checkRPS       float64
	heavyRPS       float64
	p50, p90, p99  quantile
	natRecall      float64
	dynRecall      float64
	serverCPU      float64 // blserve CPU seconds during the load
	loadCPU        float64 // this process's CPU seconds during the load
	listBytes      int64
	landed         int     // churn steps whose /v1/list was checked
	reloads, delta float64 // from /metrics
	shedRejected   float64
}

// run boots the server, drives the load and checks every answer.
func (p *servePhase) run(bin string) (*serveOutcome, error) {
	if err := p.files.write(p.nated, p.dynamic); err != nil {
		return nil, err
	}
	args := []string{"-nated", p.files.nated, "-dynamic", p.files.dynamic}
	if p.churn != nil {
		args = append(args, "-watch", "-watch-interval", watchInterval.String(), "-shed")
	}
	srv, setup, err := bootMedian(bin, args, p.boots)
	if err != nil {
		return nil, err
	}
	out, err := p.load(srv)
	if err == nil {
		out.setupS = setup
		out.peakRSSMB, err = peakRSSMB(srv.pid())
	}
	if stopErr := srv.stop(); err == nil && stopErr != nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	if p.churn != nil {
		p.checkLists(out)
	}
	return out, nil
}

// load drives the measured load against a ready server.
func (p *servePhase) load(srv *server) (*serveOutcome, error) {
	out := &serveOutcome{}
	heavyClient := newConnClient()
	defer heavyClient.CloseIdleConnections()

	srvCPU0, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	loadCPU0 := selfCPU()
	start := time.Now()
	deadline := start.Add(p.duration)

	var (
		wg       sync.WaitGroup
		checks   [2]checkResult
		heavy    heavyResult
		written  []time.Time // when each churn step was written
		writeErr error
	)
	wg.Add(2)
	go func() { defer wg.Done(); checks[0] = runChecks(srv.base, p.queries, 0, start, deadline) }()
	if p.churn == nil {
		go func() {
			defer wg.Done()
			checks[1] = runChecks(srv.base, p.queries, len(p.queries)/2, start, deadline)
		}()
	} else {
		go func() { defer wg.Done(); heavy = runHeavy(heavyClient, srv.base, p.batches, start, deadline) }()
		wg.Add(1)
		go func() {
			defer wg.Done()
			written, writeErr = p.writeChurn(start, deadline)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	out.loadCPU = selfCPU() - loadCPU0
	srvCPU1, err := procCPU(srv.pid())
	if err != nil {
		return nil, err
	}
	out.serverCPU = srvCPU1 - srvCPU0
	if writeErr != nil {
		return nil, writeErr
	}

	nWin := windows(p.duration)
	lat := make([][]float64, nWin)
	okPerWin := make([]float64, nWin)
	var queried, listed [3]int64
	for _, c := range checks {
		out.add(c.tally)
		for k := range queried {
			queried[k] += c.queried[k]
			listed[k] += c.listed[k]
		}
		for w := range c.latencies {
			lat[w] = append(lat[w], c.latencies[w]...)
			okPerWin[w] += float64(c.okPerWin[w])
		}
	}
	out.add(heavy.tally)
	out.checkRPS = median(okPerWin) / window.Seconds()
	out.heavyRPS = float64(heavy.ok) / elapsed
	out.listBytes = heavy.listBytes
	out.natRecall = recall(int(listed[kindNATed]), int(queried[kindNATed]))
	out.dynRecall = recall(int(listed[kindDynamic]), int(queried[kindDynamic]))
	if out.p50, err = windowedPercentile(lat, 0.50); err != nil {
		return nil, fmt.Errorf("p50: %w", err)
	}
	if out.p90, err = windowedPercentile(lat, 0.90); err != nil {
		return nil, fmt.Errorf("p90: %w", err)
	}
	if out.p99, err = windowedPercentile(lat, 0.99); err != nil {
		return nil, fmt.Errorf("p99: %w", err)
	}

	if p.churn != nil {
		// Let the last rewrite land, then record the list it produced so
		// the final step is checked too.
		time.Sleep(churnCadence)
		if len(written) > 0 {
			req, _ := http.NewRequest(http.MethodGet, srv.base+"/v1/list", nil)
			req.Header.Set("Accept-Encoding", "gzip")
			var buf bytes.Buffer
			etag, err := fetchList(heavyClient, req, &buf)
			if err != nil {
				return nil, fmt.Errorf("final list: %w", err)
			}
			heavy.lists = append(heavy.lists, seenList{etag: etag, gz: buf.Bytes(), at: time.Now()})
		}
		p.lists, p.written = heavy.lists, written
	}
	if err := out.scrape(srv); err != nil {
		return nil, err
	}
	return out, nil
}

// writeChurn rewrites the input files with the next churn step every
// churnCadence until deadline and returns when each step was written.
func (p *servePhase) writeChurn(start, deadline time.Time) ([]time.Time, error) {
	var written []time.Time
	for k := 1; k < len(p.churn.steps); k++ {
		due := start.Add(time.Duration(k) * churnCadence)
		if !due.Before(deadline) {
			break
		}
		time.Sleep(time.Until(due))
		st := p.churn.steps[k]
		if err := p.files.write(st.nated, st.dynamic); err != nil {
			return written, err
		}
		written = append(written, time.Now())
	}
	return written, nil
}

// scrape reads the server's reload and shed counters from /metrics.
func (o *serveOutcome) scrape(srv *server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	body, err := srv.get(ctx, "/metrics")
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			continue
		}
		switch {
		case name == obs.WallPrefix+"dataset_reloads_total":
			o.reloads = v
		case name == obs.WallPrefix+"dataset_delta_reloads_total":
			o.delta = v
		case strings.HasPrefix(name, obs.WallPrefix+"shed_requests_total{") && !strings.Contains(name, `outcome="admitted"`),
			name == obs.WallPrefix+"shed_rate_limited_total":
			o.shedRejected += v
		}
	}
	return nil
}

// checkLists verifies every /v1/list representation the heavy connection
// saw under churn: its ETag must equal that of Compile over one of the
// rewritten input files (the step written last before it was fetched, or
// an earlier one still being served), stamped with the generation time the
// body carries. The last representation must be the last step written.
func (p *servePhase) checkLists(out *serveOutcome) {
	parsed := map[int]*reuseapi.Dataset{}
	stepData := func(k int) (*reuseapi.Dataset, error) {
		if d, ok := parsed[k]; ok {
			return d, nil
		}
		d, err := parseDataset(p.churn.steps[k].nated, p.churn.steps[k].dynamic)
		parsed[k] = d
		return d, err
	}
	for i, l := range p.lists {
		zr, err := gzip.NewReader(bytes.NewReader(l.gz))
		var body []byte
		if err == nil {
			body, err = io.ReadAll(zr)
		}
		if err != nil {
			out.fail(fmt.Sprintf("list %s: %v", l.etag, err))
			continue
		}
		gen, err := listHeaderTime(body)
		if err != nil {
			out.fail(err.Error())
			continue
		}
		newest := 0 // the last step written before this list was fetched
		for k, at := range p.written {
			if at.Before(l.at) {
				newest = k + 1
			}
		}
		matched := -1
		for k := newest; k >= 0 && matched < 0; k-- {
			d, err := stepData(k)
			if err != nil {
				out.fail(fmt.Sprintf("churn step %d: %v", k, err))
				break
			}
			d.Generated = gen
			if reuseapi.Compile(d).PrecomputedBodies()["list"].ETag == l.etag {
				matched = k
			}
		}
		last := i == len(p.lists)-1
		switch {
		case matched < 0:
			out.fail(fmt.Sprintf("served list ETag %s matches no rewritten input", l.etag))
		case last && matched != len(p.written):
			out.fail(fmt.Sprintf("last churn step %d never served (still step %d)", len(p.written), matched))
		default:
			out.ok()
			out.landed++
		}
	}
}

// serveLayers measures the serving layers in process over the phase's
// dataset and mix: parsing and compiling the input files, the snapshot
// verdict, and the full HTTP handler with a no-op writer; under churn also
// one diff + delta compile and the shed admission gate.
func (p *servePhase) serveLayers(r *run) error {
	var parseT, compileT []float64
	var snap *reuseapi.Snapshot
	for i := 0; i < 3; i++ {
		t := time.Now()
		d, err := parseDataset(p.nated, p.dynamic)
		if err != nil {
			return err
		}
		parseT = append(parseT, time.Since(t).Seconds())
		t = time.Now()
		snap = reuseapi.Compile(d)
		compileT = append(compileT, time.Since(t).Seconds())
	}
	r.setLayer("blocklist.parse_s", median(parseT))
	r.setLayer("reuseapi.compile_s", median(compileT))

	addrs := make([]iputil.Addr, len(p.queries))
	for i, q := range p.queries {
		a, err := iputil.ParseAddr(strings.TrimPrefix(q.path, "/v1/check?ip="))
		if err != nil {
			return err
		}
		addrs[i] = a
	}
	r.setLayer("reuseapi.verdict_ns", nsPerOp(len(addrs), func(i int) { _ = snap.Verdict(addrs[i]) }))

	reg := reuseapi.NewRegistry()
	if err := reg.Register("default", reuseapi.NewServer(p.base)); err != nil {
		return err
	}
	h := reg.Handler()
	reqs := make([]*http.Request, len(p.queries))
	for i, q := range p.queries {
		reqs[i] = httptest.NewRequest(http.MethodGet, q.path, nil)
	}
	w := &nopWriter{h: http.Header{}}
	r.setLayer("reuseapi.handler_ns", nsPerOp(len(reqs), func(i int) {
		clear(w.h)
		h.ServeHTTP(w, reqs[i])
	}))

	if p.churn == nil {
		return nil
	}
	next, err := parseDataset(p.churn.steps[1].nated, p.churn.steps[1].dynamic)
	if err != nil {
		return err
	}
	base, err := parseDataset(p.nated, p.dynamic)
	if err != nil {
		return err
	}
	var diffT, applyT []float64
	var ops int
	for i := 0; i < 3; i++ {
		t := time.Now()
		d := reuseapi.DiffDatasets(base, next)
		diffT = append(diffT, time.Since(t).Seconds())
		t = time.Now()
		_ = snap.ApplyDelta(d)
		applyT = append(applyT, time.Since(t).Seconds())
		ops = d.Ops()
	}
	r.setLayer("reuseapi.diff_s", median(diffT))
	r.setLayer("reuseapi.apply_delta_s", median(applyT))
	r.setLayer("reuseapi.delta_ops", float64(ops))

	ctrl := shed.New(shed.Config{}, obs.NewRegistry())
	ctx := context.Background()
	var shedErr error
	r.setLayer("shed.acquire_ns", nsPerOp(1, func(int) {
		release, outcome := ctrl.Acquire(ctx, shed.ClassCheap)
		if outcome != shed.Admitted {
			shedErr = fmt.Errorf("shed: uncontended acquire was %v", outcome)
			return
		}
		release()
	}))
	return shedErr
}

// nsPerOp cycles fn over indices 0..n-1 for 40ms five times and returns
// the median nanoseconds per call.
func nsPerOp(n int, fn func(i int)) float64 {
	batch := max(n, 1024) // calls between clock reads
	var per []float64
	for round := 0; round < 5; round++ {
		calls := 0
		t := time.Now()
		for time.Since(t) < 40*time.Millisecond {
			for j := 0; j < batch; j++ {
				fn(j % n)
			}
			calls += batch
		}
		per = append(per, float64(time.Since(t).Nanoseconds())/float64(calls))
	}
	return median(per)
}

// nopWriter is a ResponseWriter that discards the body, so handler timings
// measure the handler, not a recorder.
type nopWriter struct{ h http.Header }

func (w *nopWriter) Header() http.Header         { return w.h }
func (w *nopWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nopWriter) WriteHeader(int)             {}

// runServe runs serve-check (churn false) or serve-churn (churn true).
func runServe(r *run, churn bool) error {
	data := serveData(r.seed)
	nated, dynamic := encodeDataset(data)
	base, err := parseDataset(nated, dynamic)
	if err != nil {
		return err
	}
	snap := reuseapi.Compile(base)
	rng := rand.New(rand.NewSource(r.seed ^ 0x5e7e))
	qs, batches := buildMix(rng, snap, base.SortedNATed(), base.DynamicPrefixes.Sorted())
	p := &servePhase{
		files: newInputFiles(r.dir), base: base, nated: nated, dynamic: dynamic,
		queries: qs, batches: batches, boots: serveBoots, duration: r.seconds,
	}
	if r.trace {
		p.boots = 1
	}
	if churn {
		protected := make([]iputil.Addr, 0, len(qs))
		for _, q := range qs {
			a, _ := iputil.ParseAddr(strings.TrimPrefix(q.path, "/v1/check?ip="))
			protected = append(protected, a)
		}
		steps := int(r.seconds / churnCadence)
		if p.churn, err = planChurn(rng, base, protected, max(steps, 1)); err != nil {
			return err
		}
	}
	out, err := p.run(r.blserve)
	if err != nil {
		return err
	}
	r.tally.add(out.tally)
	r.recordServe(out, "")
	if !r.trace {
		r.setE2E("setup_s", out.setupS)
		r.setE2E("peak_rss_mb", out.peakRSSMB)
		r.setE2E("throughput_per_s", out.checkRPS)
		r.setE2E("p50_ms", out.p50.Value)
		r.setE2E("nat_recall", out.natRecall)
		r.setE2E("dynamic_recall", out.dynRecall)
		return nil
	}
	r.recordServeLayers(out)
	return p.serveLayers(r)
}

// recordServe puts a serving phase's figures in the row under prefix.
func (r *run) recordServe(o *serveOutcome, prefix string) {
	r.setExtra(prefix+"setup_s", "s", o.setupS)
	r.setExtra(prefix+"rps", "1/s", o.checkRPS)
	r.setExtra(prefix+"heavy_rps", "1/s", o.heavyRPS)
	r.setExtra(prefix+"p50_ms", "ms", o.p50.Value)
	r.setExtra(prefix+"p50_samples", "count", float64(o.p50.Samples))
	r.setExtra(prefix+"p90_ms", "ms", o.p90.Value)
	r.setExtra(prefix+"p99_ms", "ms", o.p99.Value)
	r.setExtra(prefix+"p99_samples", "count", float64(o.p99.Samples))
	r.setExtra(prefix+"peak_rss_mb", "MB", o.peakRSSMB)
	r.setExtra(prefix+"blserve_cpu_s", "s", o.serverCPU)
	r.setExtra(prefix+"loadgen_cpu_s", "s", o.loadCPU)
	r.setExtra(prefix+"list_bytes", "B", float64(o.listBytes))
	r.setExtra(prefix+"churn_steps_checked", "count", float64(o.landed))
}

// recordServeLayers sets the per-layer figures the load itself measured.
func (r *run) recordServeLayers(o *serveOutcome) {
	r.setLayer("shed.rejected", o.shedRejected)
	r.setLayer("blserve.reloads", o.reloads)
	if o.reloads > 0 {
		r.setLayer("blserve.delta_share", o.delta/o.reloads)
	}
	if o.attempted > 0 {
		r.setLayer("blserve.cpu_us_per_req", o.serverCPU/float64(o.attempted)*1e6)
		r.setLayer("loadgen.cpu_us_per_req", o.loadCPU/float64(o.attempted)*1e6)
	}
}
