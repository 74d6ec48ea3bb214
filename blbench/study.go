package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/core"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/reuseapi"
	"github.com/reuseblock/reuseblock/internal/testkit"
)

// studySetups is how many NewStudy calls a -trace 0 run makes; setup_s is
// their median.
const studySetups = 3

// studySeed fixes each study workload's simulation: the world and every
// random draw of the study (fabric loss and latency, client restarts, node
// IDs, the crawler's choices) come from seed 1, the seed of the golden
// artifacts, so a run's study is the same work on every -seed. -seed draws
// the query mix the study's published output is served with. Letting it
// pick the world moves hosts between 8.4K and 13K and dynamic recall between
// 0.19 and 0.39 across seeds 1-10 at scale 1; letting it pick the crawl
// moves world-s10's NAT recall between 0.04 and 0.16 across seeds 1-4 (its
// 2 h crawl runs two ping-verification rounds). No bound of 25% holds
// either spread.
const studySeed = 1

// studyDefault is the paper's set-up: every core.Config default (world
// scale 1, a 48 h crawl from one vantage on the monolithic fabric, the ICMP
// baseline on) — the study the golden artifacts pin.
var studyDefault = core.Config{Seed: studySeed}

// worldS10 is a ten-times world crawled for 2 h through the sharded fabric
// with compact node state and no ICMP baseline, so world construction,
// swarm build, RIPE detection and the joins carry the time.
var worldS10 = core.Config{
	Seed:   studySeed,
	World:  scaled(blgen.DefaultParams(studySeed), 10),
	Shards: 4, Compact: true,
	CrawlDuration: 2 * time.Hour,
	SkipICMP:      true,
}

func scaled(p blgen.Params, scale float64) *blgen.Params {
	p.Scale = scale
	return &p
}

// runStudy runs a study workload: -trace 0 measures set-up over several
// NewStudy calls and one untraced Study.Run, checks the study against
// ground truth and serves its published output; -trace 1 hands over to
// runStudyTraced.
func runStudy(r *run, cfg core.Config) error {
	if r.trace {
		return runStudyTraced(r, cfg)
	}
	var st *core.Study
	var setups []float64
	for i := 0; i < studySetups; i++ {
		// Drop the previous world and hand its pages back, so the run's
		// peak RSS does not depend on how much the scavenger has returned.
		st = nil
		freeHeap()
		t := time.Now()
		st = core.NewStudy(cfg)
		setups = append(setups, time.Since(t).Seconds())
	}
	freeHeap()
	setupS := median(setups)
	studyS, busy, err := timedRun(st)
	if err != nil {
		return err
	}
	nat, dyn := r.checkStudy(st)
	hosts := len(st.World.BTUsers)
	r.setExtra("study_s", "s", studyS)
	r.setExtra("hosts", "count", float64(hosts))
	r.setExtra("hosts_per_s", "1/s", float64(hosts)/(setupS+studyS))
	r.setExtra("busy_ratio", "frac", busy)

	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	p, err := studyServePhase(r, st)
	if err != nil {
		return err
	}
	freeHeap() // the world is dead; the load generator should not mark it
	out, err := r.serveStudy(p)
	if err != nil {
		return err
	}
	r.setE2E("setup_s", setupS)
	r.setE2E("peak_rss_mb", rss)
	r.setE2E("throughput_per_s", float64(hosts)/(setupS+studyS))
	r.setE2E("p50_ms", out.p50.Value)
	r.setE2E("nat_recall", nat)
	r.setE2E("dynamic_recall", dyn)
	return nil
}

// timedRun runs the study untraced and returns its wall seconds and how
// busy the processors were meanwhile.
func timedRun(st *core.Study) (wallS, busy float64, err error) {
	cpu0 := selfCPU()
	t := time.Now()
	if _, err := st.Run(); err != nil {
		return 0, 0, err
	}
	wallS = time.Since(t).Seconds()
	return wallS, busyRatio(selfCPU()-cpu0, wallS, runtime.GOMAXPROCS(0)), nil
}

// checkStudy checks the study's detections against the world's ground
// truth, counting each oracle as one operation, and returns the NAT and
// dynamic-prefix recall.
func (r *run) checkStudy(st *core.Study) (natRecall, dynRecall float64) {
	o := testkit.Oracle{World: st.World}
	for name, err := range map[string]error{
		"nat observations":  o.CheckNATObservations(st.NATed),
		"dynamic detection": o.CheckDynamicDetection(st.RIPE),
	} {
		if err != nil {
			r.tally.fail(name + ": " + err.Error())
		} else {
			r.tally.ok()
		}
	}
	rc := studyRecall(st)
	r.setExtra("nat_recall", "frac", rc.nat)
	r.setExtra("nat_coverage", "frac", rc.natCoverage)
	r.setExtra("nat_recall_all", "frac", rc.natAll)
	r.setExtra("dynamic_recall", "frac", rc.dyn)
	return rc.nat, rc.dyn
}

// recalls are a study's detection figures against ground truth.
type recalls struct {
	// nat is confirmed NATed gateways over the in-scope gateways with at
	// least two BitTorrent users that the crawl observed at all; natAll
	// divides by every such gateway, and natCoverage is the share the crawl
	// observed, so natAll = nat × natCoverage.
	nat, natAll, natCoverage float64
	// dyn is detected dynamic /24s over probe-covered, truly dynamic /24s.
	dyn float64
}

func studyRecall(st *core.Study) recalls {
	w := st.World
	scope := w.BlocklistedSpace()
	found := map[iputil.Addr]bool{}
	for _, o := range st.NATed {
		found[o.Addr] = true
	}
	truth, seen, hit := 0, 0, 0
	for a, t := range w.NATByIP {
		if t.BTUsers < 2 || (!st.Config.ScopeAll && !scope.Covers(a)) {
			continue
		}
		truth++
		if st.BTObserved.Contains(a) {
			seen++
		}
		if found[a] {
			hit++
		}
	}
	rc := recalls{nat: recall(hit, seen), natAll: recall(hit, truth), natCoverage: recall(seen, truth)}
	wanted, detected := 0, 0
	for _, p := range st.RIPE.RIPEPrefixes.Sorted() {
		if !w.TrueAnyDynamic.Covers(p.Base()) {
			continue
		}
		wanted++
		if st.RIPE.DynamicPrefixes.Contains(p) {
			detected++
		}
	}
	rc.dyn = recall(detected, wanted)
	return rc
}

// freeHeap collects garbage and returns the freed pages to the OS.
func freeHeap() {
	runtime.GC()
	debug.FreeOSMemory()
}

// serveStudy serves the study's published output and measures it.
func (r *run) serveStudy(p *servePhase) (*serveOutcome, error) {
	out, err := p.run(r.blserve)
	if err != nil {
		return nil, err
	}
	r.tally.add(out.tally)
	r.recordServe(out, "serve_")
	if r.trace {
		r.recordServeLayers(out)
		if err := p.serveLayers(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// studyServePhase publishes the study's output (its NATed list and dynamic
// prefixes) for blserve, with a check mix over it, to be measured on two
// connections for half the run time.
func studyServePhase(r *run, st *core.Study) (*servePhase, error) {
	data := &reuseapi.Dataset{NATUsers: map[iputil.Addr]int{}, DynamicPrefixes: st.RIPE.DynamicPrefixes}
	for _, o := range st.NATed {
		data.NATUsers[o.Addr] = o.Users
	}
	nated, dynamic := encodeDataset(data)
	base, err := parseDataset(nated, dynamic)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.seed ^ 0x5e7e))
	qs, batches := buildMix(rng, reuseapi.Compile(base), base.SortedNATed(), base.DynamicPrefixes.Sorted())
	return &servePhase{
		files: newInputFiles(r.dir), base: base, nated: nated, dynamic: dynamic,
		queries: qs, batches: batches, boots: 1, duration: r.seconds / 2,
	}, nil
}

// runStudyTraced is the -trace 1 run of a study workload: one world, an
// untraced Study.Run on it, then the traced pipeline on the same world,
// which must reproduce Study.Run's crawl exactly; then the codec and
// address-set replays over the captured traffic and the serving layers
// over the published output.
func runStudyTraced(r *run, cfg core.Config) error {
	tr := &tracer{}
	root := tr.begin("blbench "+r.workload, -1)
	wp := blgen.DefaultParams(cfg.Seed)
	if cfg.World != nil {
		wp = *cfg.World
	}
	if wp.Workers == 0 {
		wp.Workers = runtime.GOMAXPROCS(0) // what NewStudy passes on
	}
	id := tr.begin("blgen.Generate", root)
	w := blgen.Generate(wp)
	r.setLayer("blgen.generate_s", tr.end(id))
	r.setLayer("blgen.hosts", float64(len(w.BTUsers)))
	r.setLayer("ripeatlas.log_entries", float64(len(w.RIPELogs)))

	st := core.NewStudyFromWorld(w, cfg)
	studyS, busy, err := timedRun(st)
	if err != nil {
		return err
	}
	r.setLayer("parallel.busy_ratio", busy)
	r.setExtra("study_s", "s", studyS)
	r.checkStudy(st)

	id = tr.begin("traced study", root)
	traced, err := tracedStudy(r, core.NewStudyFromWorld(w, cfg), tr, id)
	tr.end(id)
	if err != nil {
		return err
	}
	r.setLayer("trace.overhead_pct", (traced.wallS-studyS)/studyS*100)
	if diff := sameCrawl(st, traced); diff != "" {
		r.tally.fail("traced run differs from Study.Run: " + diff)
	} else {
		r.tally.ok()
	}
	if err := replayCrawl(r, traced, st); err != nil {
		return err
	}
	p, err := studyServePhase(r, st)
	if err != nil {
		return err
	}
	freeHeap() // the world is dead; the load generator should not mark it
	if _, err := r.serveStudy(p); err != nil {
		return err
	}
	tr.end(root)
	return tr.write(filepath.Join(".bench_build", "traces"), fmt.Sprintf("%s-seed%d.json", r.workload, r.seed))
}
