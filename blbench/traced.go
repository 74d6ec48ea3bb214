package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"github.com/reuseblock/reuseblock/internal/analysis"
	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/core"
	"github.com/reuseblock/reuseblock/internal/crawler"
	"github.com/reuseblock/reuseblock/internal/dht"
	"github.com/reuseblock/reuseblock/internal/icmpsurvey"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/netsim"
	"github.com/reuseblock/reuseblock/internal/parallel"
	"github.com/reuseblock/reuseblock/internal/ripeatlas"
	"github.com/reuseblock/reuseblock/internal/survey"
)

// span is one timed call into a layer. Parent is the index of the span
// that caused it, -1 for the root.
type span struct {
	Name   string    `json:"name"`
	Parent int       `json:"parent"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// tracer keeps spans in memory until the run ends. Safe for concurrent use:
// the traced stages run in parallel like Study.Run's.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Now()})
	return len(t.spans) - 1
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = time.Now()
	return t.spans[id].End.Sub(t.spans[id].Start).Seconds()
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// crawlAcc accumulates the crawler boundary's self times and captures its
// traffic. On a sharded fabric the crawler's callbacks run on whichever
// goroutine advances its shard, so every field is atomic or locked.
type crawlAcc struct {
	sendNs, recvNs, timerNs atomic.Int64

	mu   sync.Mutex
	sent payloads
	recv payloads
	from []iputil.Addr // sender of each received payload
}

// payloads is a packed list of datagrams.
type payloads struct {
	buf  []byte
	ends []int
}

func (p *payloads) add(b []byte) {
	p.buf = append(p.buf, b...)
	p.ends = append(p.ends, len(p.buf))
}

func (p *payloads) len() int { return len(p.ends) }

func (p *payloads) at(i int) []byte {
	start := 0
	if i > 0 {
		start = p.ends[i-1]
	}
	return p.buf[start:p.ends[i]]
}

// tracedSocket wraps the crawler's socket: Send is timed and captured, and
// the handler the crawler installs is wrapped so its self time (minus the
// sends it makes) and its input are recorded.
type tracedSocket struct {
	inner netsim.Socket
	acc   *crawlAcc
}

func (s *tracedSocket) Send(to netsim.Endpoint, payload []byte) {
	t := time.Now()
	s.inner.Send(to, payload)
	s.acc.sendNs.Add(int64(time.Since(t)))
	s.acc.mu.Lock()
	s.acc.sent.add(payload)
	s.acc.mu.Unlock()
}

func (s *tracedSocket) SetHandler(h netsim.Handler) {
	s.inner.SetHandler(func(from netsim.Endpoint, payload []byte) {
		s.acc.mu.Lock()
		s.acc.recv.add(payload)
		s.acc.from = append(s.acc.from, from.Addr)
		s.acc.mu.Unlock()
		sent0 := s.acc.sendNs.Load()
		t := time.Now()
		h(from, payload)
		s.acc.recvNs.Add(int64(time.Since(t)) - (s.acc.sendNs.Load() - sent0))
	})
}

func (s *tracedSocket) PublicEndpoint() (netsim.Endpoint, bool) { return s.inner.PublicEndpoint() }
func (s *tracedSocket) Close()                                  { s.inner.Close() }

// tracedClock wraps the crawler's clock so each timer callback's self time
// (minus its sends) is recorded.
type tracedClock struct {
	inner dht.Clock
	acc   *crawlAcc
}

func (c tracedClock) Now() time.Time { return c.inner.Now() }

func (c tracedClock) After(d time.Duration, fn func()) func() bool {
	return c.inner.After(d, func() {
		sent0 := c.acc.sendNs.Load()
		t := time.Now()
		fn()
		c.acc.timerNs.Add(int64(time.Since(t)) - (c.acc.sendNs.Load() - sent0))
	})
}

// tracedResult is what the traced pipeline produced.
type tracedResult struct {
	nated      []crawler.NATObservation
	crawlStats crawler.Stats
	observed   *iputil.Set
	ripe       *ripeatlas.Result
	acc        *crawlAcc
	scope      func(iputil.Addr) bool
	wallS      float64 // stages + join, comparable to Study.Run
}

// tracedStudy rebuilds Study.Run for one fault-free vantage from the layers'
// public calls, recording a span around each and wrapping the crawler's
// socket and clock. It must produce Study.Run's NATed and CrawlStats
// exactly; runStudyTraced checks that.
func tracedStudy(r *run, st *core.Study, tr *tracer, root int) (*tracedResult, error) {
	cfg := st.Config // defaults applied by NewStudyFromWorld
	if cfg.Vantages != 1 || cfg.Faults != nil {
		return nil, fmt.Errorf("traced pipeline covers one fault-free vantage, got %d vantages", cfg.Vantages)
	}
	w := st.World
	out := &tracedResult{acc: &crawlAcc{}}
	scopeSet := w.BlocklistedSpace()
	if !cfg.ScopeAll {
		out.scope = scopeSet.Covers
	}

	var (
		crawlErr error
		cai      *icmpsurvey.Result
	)
	t0 := time.Now()
	parallel.Do(cfg.Workers,
		func() { crawlErr = tracedCrawl(r, w, cfg, scopeSet, out, tr, root) },
		func() {
			id := tr.begin("ripeatlas.Detect", root)
			out.ripe = ripeatlas.Detect(w.RIPELogs, ripeatlas.DetectOptions{})
			r.setLayer("ripeatlas.detect_s", tr.end(id))
		},
		func() {
			if cfg.SkipICMP {
				return
			}
			id := tr.begin("icmpsurvey.Run", root)
			cai = icmpsurvey.Run(w, icmpsurvey.Config{
				Blocks:   sampleBlocks(w, cfg.SurveyBlockFrac),
				Start:    w.RIPEStart,
				Duration: cfg.SurveyDuration,
				Interval: cfg.SurveyInterval,
				Workers:  cfg.Workers,
			})
			r.setLayer("icmpsurvey.run_s", tr.end(id))
			r.setLayer("icmpsurvey.probes", float64(cai.ProbesSent))
		},
		func() {
			id := tr.begin("survey", root)
			responses := survey.StandardResponses(cfg.Seed)
			_ = survey.Summarize(responses)
			_ = survey.TypesAmongAffected(responses)
			tr.end(id)
		},
	)
	if crawlErr != nil {
		return nil, crawlErr
	}

	natUsers := make(map[iputil.Addr]int, len(out.nated))
	for _, o := range out.nated {
		natUsers[o.Addr] = o.Users
	}
	in := &analysis.Inputs{
		Collection:      w.Collection,
		NATUsers:        natUsers,
		BTObserved:      out.observed,
		DynamicPrefixes: out.ripe.DynamicPrefixes,
		RIPEPrefixes:    out.ripe.RIPEPrefixes,
		Workers:         cfg.Workers,
		ASNOf: func(a iputil.Addr) (int, bool) {
			pi, ok := w.PrefixOf(a)
			if !ok {
				return 0, false
			}
			return pi.ASN, true
		},
	}
	if cai != nil {
		in.CaiBlocks = cai.DynamicBlocks
	}
	id := tr.begin("analysis.Compute", root)
	parallel.Do(cfg.Workers,
		func() { _ = analysis.ComputePerListReuse(in) },
		func() { _ = analysis.ComputeDurations(in) },
		func() { _ = analysis.ComputeNATUsers(in) },
		func() { _ = analysis.ComputeASOverlap(in) },
		func() {
			_ = analysis.ComputeFunnel(in, out.crawlStats.UniqueIPs, analysis.RIPEStages{
				SameAS:   slash24s(out.ripe.SameASAddresses),
				Frequent: slash24s(out.ripe.FrequentAddresses),
				Daily:    out.ripe.DynamicPrefixes,
			})
		},
	)
	r.setLayer("analysis.join_s", tr.end(id))
	out.wallS = time.Since(t0).Seconds()
	return out, nil
}

// tracedCrawl is the crawl stage: swarm build, the crawler on wrapped
// socket and clock, and the merge Study.Run applies to vantage results.
func tracedCrawl(r *run, w *blgen.World, cfg core.Config, scopeSet *iputil.PrefixSet, out *tracedResult, tr *tracer, root int) error {
	crawl := tr.begin("crawl", root)
	defer tr.end(crawl)
	id := tr.begin("core.BuildSwarm", crawl)
	swarm, err := core.BuildSwarm(w, core.SwarmConfig{
		Loss:           cfg.Loss,
		Seed:           cfg.Seed,
		RestartsPerDay: cfg.RestartsPerDay,
		ChurnHorizon:   cfg.CrawlDuration,
		Shards:         cfg.Shards,
		ShardWorkers:   cfg.Workers,
		Compact:        cfg.Compact,
	}, scopeSet.Covers)
	r.setLayer("core.build_swarm_s", tr.end(id))
	if err != nil {
		return err
	}
	r.setLayer("core.swarm_nats", float64(len(swarm.NATs)))
	vantage := iputil.AddrFrom4(198, 18, 0, 1)
	sock, err := swarm.Listen(netsim.Endpoint{Addr: vantage, Port: 9999})
	if err != nil {
		return err
	}
	acc := out.acc
	c := crawler.New(&tracedSocket{inner: sock, acc: acc}, tracedClock{inner: dht.SimClock(swarm.ClockAt(vantage)), acc: acc},
		crawler.Config{
			Bootstrap: []netsim.Endpoint{swarm.Bootstrap},
			Scope:     out.scope,
			Seed:      cfg.Seed ^ 0x4352574c, // Study.Run's vantage-0 crawler seed
		})
	var runS float64
	id = tr.begin("Swarm.RunFor warm-up", crawl)
	swarm.RunFor(time.Minute)
	runS += tr.end(id)
	c.Start()
	id = tr.begin("Swarm.RunFor crawl", crawl)
	swarm.RunFor(cfg.CrawlDuration)
	runS += tr.end(id)
	c.Stop()

	stats := c.Stats()
	ips := c.ObservedIPs()
	out.observed = iputil.NewSet()
	out.observed.AddSet(ips)
	out.nated = crawler.MergeObservations(c.NATed())
	out.crawlStats = crawler.MergeStats(stats)
	out.crawlStats.UniqueIPs = out.observed.Len()
	out.crawlStats.UniqueNodeIDs = stats.UniqueNodeIDs
	out.crawlStats.NATedIPs = len(out.nated)

	recvS := float64(acc.recvNs.Load()) / 1e9
	sendS := float64(acc.sendNs.Load()) / 1e9
	timerS := float64(acc.timerNs.Load()) / 1e9
	net := swarm.NetStats()
	selfS := runS - recvS - sendS - timerS
	r.setLayer("crawler.recv_s", recvS)
	r.setLayer("crawler.send_s", sendS)
	r.setLayer("crawler.timer_s", timerS)
	r.setLayer("swarm.run_self_s", selfS)
	if net.Delivered > 0 {
		r.setLayer("netsim.ns_per_delivered", selfS*1e9/float64(net.Delivered))
	}
	r.setLayer("netsim.sent", float64(net.Sent))
	r.setLayer("netsim.delivered", float64(net.Delivered))
	r.setLayer("netsim.dropped", float64(net.Dropped))
	r.setLayer("netsim.no_route", float64(net.NoRoute))
	r.setLayer("crawler.messages_sent", float64(stats.MessagesSent))
	r.setLayer("crawler.messages_received", float64(stats.MessagesReceived))
	r.setLayer("crawler.response_rate", stats.ResponseRate)
	if stats.MultiPortIPs > 0 {
		r.setLayer("crawler.ping_yield", float64(stats.NATedIPs)/float64(stats.MultiPortIPs))
	}
	r.setLayer("crawler.retries", float64(stats.Retries))
	r.setLayer("crawler.timeouts", float64(stats.Timeouts))
	r.setLayer("crawler.late_replies", float64(stats.LateReplies))
	return nil
}

// sampleBlocks is Study's ICMP sample: every k'th world /24, k = 1/frac.
func sampleBlocks(w *blgen.World, frac float64) []iputil.Prefix {
	var all []iputil.Prefix
	for _, a := range w.ASes {
		for _, pi := range a.Prefixes {
			all = append(all, pi.Prefix)
		}
	}
	if frac >= 1 {
		return all
	}
	step := max(int(1/frac), 1)
	var out []iputil.Prefix
	for i := 0; i < len(all); i += step {
		out = append(out, all[i])
	}
	return out
}

// slash24s is the report's prefix view of an address set.
func slash24s(addrs *iputil.Set) *iputil.PrefixSet {
	if addrs == nil {
		return nil
	}
	return addrs.Slash24s()
}

// sameCrawl reports how the traced crawl differs from Study.Run's, or "".
func sameCrawl(st *core.Study, t *tracedResult) string {
	if !reflect.DeepEqual(st.NATed, t.nated) {
		return fmt.Sprintf("NATed differs: Study.Run %d observations, traced %d", len(st.NATed), len(t.nated))
	}
	if !reflect.DeepEqual(st.CrawlStats, t.crawlStats) {
		return fmt.Sprintf("CrawlStats differ: Study.Run %+v, traced %+v", st.CrawlStats, t.crawlStats)
	}
	return ""
}
