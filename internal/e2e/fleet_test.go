//go:build e2e

package e2e

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/blocklist"
	"github.com/reuseblock/reuseblock/internal/fleet"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/obs"
)

// The fleet e2e scenarios boot blfleet as a real process supervising real
// blcrawl worker processes over loopback UDP, and pin the subsystem's
// headline guarantee end to end: the coordinator is byte-transparent. Its
// merged output is identical to running every `blcrawl -shard I/N` yourself
// and merging the files — whatever the worker placement, heartbeat timing,
// or mid-crawl crashes.

const (
	fleetSeed  = 1
	fleetScale = 0.05
	fleetHours = 8
)

// fleetCrawlArgs are the world parameters shared by every process in one
// equivalence comparison; both sides must agree exactly.
func fleetCrawlArgs() []string {
	return []string{
		"-seed", strconv.Itoa(fleetSeed),
		"-scale", fmt.Sprintf("%g", fleetScale),
		"-duration", (fleetHours * time.Hour).String(),
	}
}

// harnessMergedShards runs n independent `blcrawl -shard i/n` processes (no
// coordinator involved), merges their outputs with the harness's own
// max-union merge, and writes the result exactly as blfleet writes its
// merged artifact. This is the equivalence oracle.
func harnessMergedShards(t *testing.T, bins map[string]string, dir string, n int, faults string) []byte {
	t.Helper()
	shardOuts := make([]string, n)
	procs := make([]*Proc, n)
	for i := range procs {
		shardOuts[i] = filepath.Join(dir, fmt.Sprintf("solo_shard%d.txt", i))
		args := append(fleetCrawlArgs(), "-out", shardOuts[i])
		if n > 1 {
			args = append(args, "-shard", fmt.Sprintf("%d/%d", i+1, n))
		}
		if faults != "" {
			args = append(args, "-faults", faults)
		}
		p, err := StartProc(fmt.Sprintf("solo-blcrawl-%d", i), bins["blcrawl"], args...)
		if err != nil {
			t.Fatal(err)
		}
		procs[i] = p
	}
	for _, p := range procs {
		if err := p.WaitExit(2 * time.Minute); err != nil {
			t.Fatalf("%s: %v\nstderr: %s", p.Name, err, p.Stderr())
		}
	}
	merged, err := MergeNATedShards(shardOuts)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "solo_merged.txt")
	if err := fleet.WriteOut(out, merged, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// runBlfleet runs one blfleet process to completion and returns the merged
// output bytes and the parsed manifest.
func runBlfleet(t *testing.T, bins map[string]string, dir string, n int, extra ...string) ([]byte, *obs.Manifest) {
	t.Helper()
	out := filepath.Join(dir, fmt.Sprintf("fleet%d_merged.txt", n))
	manifest := filepath.Join(dir, fmt.Sprintf("fleet%d_manifest.json", n))
	args := append(fleetCrawlArgs(),
		"-workers", strconv.Itoa(n),
		"-blcrawl", bins["blcrawl"],
		"-hb-interval", "25ms",
		"-out", out,
		"-manifest-out", manifest,
	)
	args = append(args, extra...)
	p, err := StartProc(fmt.Sprintf("blfleet-%d", n), bins["blfleet"], args...)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.WaitExit(4 * time.Minute); err != nil {
		t.Fatalf("blfleet -workers %d: %v\nstderr: %s", n, err, p.Stderr())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("blfleet -workers %d wrote no merged output: %v\nstderr: %s", n, err, p.Stderr())
	}
	mdata, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}
	var m obs.Manifest
	if err := json.Unmarshal(mdata, &m); err != nil {
		t.Fatalf("manifest does not parse: %v", err)
	}
	return data, &m
}

// TestFleetEquivalence pins byte-transparency across fleet widths: for every
// N the coordinator's merged artifact equals the harness's own merge of N
// independent single-shard crawls, and the single-worker fleet equals a
// plain unsharded blcrawl run.
func TestFleetEquivalence(t *testing.T) {
	bins, err := Binaries()
	if err != nil {
		t.Fatal(err)
	}
	widths := []int{1, 2, 4, 8}
	if testing.Short() {
		widths = []int{1, 2}
	}
	for _, n := range widths {
		n := n
		t.Run(fmt.Sprintf("workers=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			want := harnessMergedShards(t, bins, dir, n, "")
			got, m := runBlfleet(t, bins, dir, n)
			if !bytes.Equal(got, want) {
				t.Errorf("fleet(%d) merged output differs from independently merged shards\nfleet:\n%s\nsolo:\n%s", n, got, want)
			}
			if m.Fleet == nil || m.Fleet.Workers != n || len(m.Fleet.Shards) != n {
				t.Fatalf("manifest fleet block: %+v", m.Fleet)
			}
			if m.Fleet.Restarts != 0 {
				t.Errorf("calm run recorded %d restarts", m.Fleet.Restarts)
			}
			for _, sh := range m.Fleet.Shards {
				if sh.Heartbeats == 0 {
					t.Errorf("worker %d reported no heartbeats", sh.Worker)
				}
			}
		})
	}
}

// TestFleetEquivalenceBursty repeats the transparency pin under injected
// bursty datagram loss: fault injection perturbs what each shard observes,
// but never what the coordinator does with it.
func TestFleetEquivalenceBursty(t *testing.T) {
	bins, err := Binaries()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	want := harnessMergedShards(t, bins, dir, 2, "bursty")
	got, _ := runBlfleet(t, bins, dir, 2, "-faults", "bursty")
	if !bytes.Equal(got, want) {
		t.Errorf("bursty fleet(2) merged output differs from independently merged shards\nfleet:\n%s\nsolo:\n%s", got, want)
	}
}

// TestFleetKillWorker is the supervision acceptance scenario: a worker
// process is chaos-killed mid-crawl, the coordinator restarts its shard, the
// manifest records the kill and the restart, and the merged output is still
// byte-identical to an undisturbed run.
func TestFleetKillWorker(t *testing.T) {
	bins, err := Binaries()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	calmDir := filepath.Join(dir, "calm")
	chaosDir := filepath.Join(dir, "chaos")
	for _, d := range []string{calmDir, chaosDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}

	calm, _ := runBlfleet(t, bins, calmDir, 2)
	chaos, m := runBlfleet(t, bins, chaosDir, 2,
		"-kill-worker", "2", "-kill-after", "0s", "-hb-interval", "10ms")

	if !bytes.Equal(chaos, calm) {
		t.Errorf("chaos-killed fleet produced different bytes than the calm run\nchaos:\n%s\ncalm:\n%s", chaos, calm)
	}
	if m.Fleet == nil {
		t.Fatal("manifest has no fleet block")
	}
	if m.Fleet.Restarts < 1 {
		t.Errorf("manifest records %d restarts, want >= 1", m.Fleet.Restarts)
	}
	var victim *obs.FleetShardStatus
	for i := range m.Fleet.Shards {
		if m.Fleet.Shards[i].Worker == 2 {
			victim = &m.Fleet.Shards[i]
		}
	}
	if victim == nil {
		t.Fatalf("manifest has no shard entry for worker 2: %+v", m.Fleet.Shards)
	}
	if !victim.Killed {
		t.Errorf("manifest does not mark worker 2 as chaos-killed: %+v", victim)
	}
	if victim.Attempts < 2 {
		t.Errorf("killed worker records %d attempts, want >= 2", victim.Attempts)
	}
}

// TestFleetBench records the fleet's scaling profile — crawl throughput and
// merge latency at widths 1, 2 and 4 — to the bench ledger for the nightly
// trend history. Wider fleets crawl different shards and merge different
// lists, so each row also carries recall_vs_width1: the share of the width-1
// run's merged NATed addresses (byte-identical to plain blcrawl) that the
// width-N fleet also found. Throughput is only comparable next to it.
func TestFleetBench(t *testing.T) {
	if testing.Short() {
		t.Skip("bench run")
	}
	bins, err := Binaries()
	if err != nil {
		t.Fatal(err)
	}
	var width1 map[iputil.Addr]int
	var rows []obs.BenchRow
	for _, n := range []int{1, 2, 4} {
		dir := t.TempDir()
		start := time.Now()
		merged, m := runBlfleet(t, bins, dir, n)
		elapsed := time.Since(start)
		if m.Fleet == nil {
			t.Fatalf("workers=%d: manifest has no fleet block", n)
		}
		users, err := blocklist.ParseNATedList(bytes.NewReader(merged))
		if err != nil {
			t.Fatalf("workers=%d: merged list: %v", n, err)
		}
		if n == 1 {
			if len(users) == 0 {
				t.Fatal("width-1 fleet merged no NATed addresses; recall is undefined")
			}
			width1 = users
		}
		found := 0
		for a := range width1 {
			if _, ok := users[a]; ok {
				found++
			}
		}
		recall := float64(found) / float64(len(width1))
		rows = append(rows, obs.BenchRow{
			Bench: "fleet-scaling",
			Case:  fmt.Sprintf("workers=%d/crawl_hours=%d", n, fleetHours),
			Layer: "fleet",
			Seed:  fleetSeed,
			Scale: fleetScale,
			Metrics: map[string]float64{
				"duration_sec":     elapsed.Seconds(), // wall time of the whole fleet run
				"hosts_per_sec":    m.Fleet.HostsPerSec,
				"merge_ms":         float64(m.Fleet.MergeMillis),
				"merged_addrs":     float64(len(users)),
				"restarts":         float64(m.Fleet.Restarts),
				"recall_vs_width1": recall,
			},
		})
		t.Logf("workers=%d: %.1f hosts/sec, merge %dms, %d addrs (recall %.2f vs width 1) in %v",
			n, m.Fleet.HostsPerSec, m.Fleet.MergeMillis, len(users), recall, elapsed.Round(time.Millisecond))
	}
	if err := obs.AppendBench(rows...); err != nil {
		t.Fatal(err)
	}
}
