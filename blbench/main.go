// Command blbench is the repository's benchmark: it runs one named workload
// for a given seed, checks every output against ground truth, and prints the
// workload's metrics as one JSON line.
//
//	bash blbench/run.sh --workload study-default --seed 1 --seconds 10 --trace 0
//
// run.sh builds this package and cmd/blserve from the checkout and then
// execs the benchmark with the same arguments plus -blserve. The last line
// of standard output is
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics with -trace 0 and the per-layer metrics
// with -trace 1. The line before it is a provenance row naming the workload,
// seed, CPU count, GOMAXPROCS, revision and Go version, with every figure
// the run measured. Any correctness violation makes the exit status 1. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd names every metric a -trace 0 run reports, with its unit. Every
// workload reports all of them; README.md says what each means where.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"nat_recall", "frac"},
	{"dynamic_recall", "frac"},
}

// perLayer names every metric a -trace 1 run reports. A layer the workload
// does not exercise reports 0: it did no work.
var perLayer = []struct{ name, unit string }{
	{"blgen.generate_s", "s"},
	{"blgen.hosts", "count"},
	{"ripeatlas.log_entries", "count"},
	{"core.build_swarm_s", "s"},
	{"core.swarm_nats", "count"},
	{"crawler.recv_s", "s"},
	{"crawler.send_s", "s"},
	{"crawler.timer_s", "s"},
	{"swarm.run_self_s", "s"},
	{"netsim.ns_per_delivered", "ns"},
	{"netsim.sent", "count"},
	{"netsim.delivered", "count"},
	{"netsim.dropped", "count"},
	{"netsim.no_route", "count"},
	{"crawler.messages_sent", "count"},
	{"crawler.messages_received", "count"},
	{"crawler.response_rate", "frac"},
	{"crawler.ping_yield", "frac"},
	{"crawler.retries", "count"},
	{"crawler.timeouts", "count"},
	{"crawler.late_replies", "count"},
	{"krpc.decode_ns", "ns"},
	{"krpc.encode_ns", "ns"},
	{"bencode.decode_ns", "ns"},
	{"krpc.bytes_per_msg", "B"},
	{"ipset.add_ns", "ns"},
	{"ipset.contains_ns", "ns"},
	{"ripeatlas.detect_s", "s"},
	{"icmpsurvey.run_s", "s"},
	{"icmpsurvey.probes", "count"},
	{"analysis.join_s", "s"},
	{"parallel.busy_ratio", "frac"},
	{"trace.overhead_pct", "%"},
	{"blocklist.parse_s", "s"},
	{"reuseapi.compile_s", "s"},
	{"reuseapi.verdict_ns", "ns"},
	{"reuseapi.handler_ns", "ns"},
	{"reuseapi.diff_s", "s"},
	{"reuseapi.apply_delta_s", "s"},
	{"reuseapi.delta_ops", "count"},
	{"shed.acquire_ns", "ns"},
	{"shed.rejected", "count"},
	{"blserve.reloads", "count"},
	{"blserve.delta_share", "frac"},
	{"blserve.cpu_us_per_req", "us"},
	{"loadgen.cpu_us_per_req", "us"},
}

// run is one benchmark invocation.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	blserve  string // path of the blserve binary
	dir      string // this run's private file area

	mu    sync.Mutex        // guards the metric maps: traced stages set them concurrently
	e2e   map[string]metric // end-to-end metrics (-trace 0)
	layer map[string]metric // per-layer metrics (-trace 1)
	extra map[string]metric // further figures, printed in the row only
	tally tally
}

func (r *run) set(m map[string]metric, name, unit string, v float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m[name] = metric{v, unit}
}

func (r *run) setE2E(name string, v float64)   { r.set(r.e2e, name, unitOf(endToEnd, name), v) }
func (r *run) setLayer(name string, v float64) { r.set(r.layer, name, unitOf(perLayer, name), v) }
func (r *run) setExtra(name, unit string, v float64) {
	r.set(r.extra, name, unit, v)
}

func unitOf(list []struct{ name, unit string }, name string) string {
	for _, m := range list {
		if m.name == name {
			return m.unit
		}
	}
	panic("blbench: undeclared metric " + name)
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"study-default": func(r *run) error { return runStudy(r, studyDefault) },
	"world-s10":     func(r *run) error { return runStudy(r, worldS10) },
	"serve-check":   func(r *run) error { return runServe(r, false) },
	"serve-churn":   func(r *run) error { return runServe(r, true) },
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		workload = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "how long the run measures")
		trace    = flag.Int("trace", 0, "0 reports end-to-end metrics, 1 runs the traced pipeline and reports per-layer metrics")
		blserve  = flag.String("blserve", "", "path of the blserve binary to serve with")
	)
	flag.Parse()
	drive, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) || *blserve == "" {
		fmt.Fprintf(os.Stderr, "blbench: need -workload (%s), -seconds > 0, -trace 0|1 and -blserve\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	// The load generator and the server share the host: cap this process
	// at two processors so it never takes more than the server could.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	runs := filepath.Join(".bench_build", "runs")
	_ = os.MkdirAll(runs, 0o755) // MkdirTemp reports the failure
	dir, err := os.MkdirTemp(runs, *workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "blbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	r := &run{
		workload: *workload, seed: *seed, trace: *trace == 1,
		seconds: time.Duration(*seconds * float64(time.Second)),
		blserve: *blserve, dir: dir,
		e2e: map[string]metric{}, layer: map[string]metric{}, extra: map[string]metric{},
	}
	if r.trace {
		for _, m := range perLayer {
			r.setLayer(m.name, 0)
		}
	}
	if err := drive(r); err != nil {
		fmt.Fprintf(os.Stderr, "blbench: %s seed %d: %v\n", r.workload, r.seed, err)
		return 1
	}
	return r.report()
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// report prints the provenance row and the result line, and returns the
// exit status: 1 when any operation failed.
func (r *run) report() int {
	want, got := endToEnd, r.e2e
	if r.trace {
		want, got = perLayer, r.layer
	}
	for _, m := range want {
		if _, ok := got[m.name]; !ok {
			fmt.Fprintf(os.Stderr, "blbench: %s did not measure %s\n", r.workload, m.name)
			return 1
		}
	}
	r.setExtra("failed_frac", "frac", r.tally.failedFrac())
	all := map[string]metric{}
	for _, src := range []map[string]metric{r.extra, r.e2e, r.layer} {
		for k, v := range src {
			all[k] = v
		}
	}
	row := map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"trace":      r.trace,
		"seconds":    r.seconds.Seconds(),
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"rev":        revision(),
		"source":     sourceDigest(),
		"go_version": runtime.Version(),
		"when":       time.Now().UTC().Format(time.RFC3339),
		"metrics":    all,
	}
	enc := json.NewEncoder(os.Stdout)
	_ = enc.Encode(map[string]any{"row": row})
	for _, e := range r.tally.examples {
		fmt.Fprintln(os.Stderr, "blbench: failed:", e)
	}
	res := result{
		Correct:   r.tally.failed == 0,
		Attempted: r.tally.attempted,
		Failed:    r.tally.failed,
		Metrics:   got,
	}
	_ = enc.Encode(res)
	if !res.Correct {
		return 1
	}
	return 0
}
