package core

import (
	"runtime"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
)

// TestShardedRestartsRaceFree drives dense client restarts on a sharded
// fabric with concurrent shard workers. Restarts bind sockets and allocate
// nodes from shard clocks, so two shards restarting inside one window run on
// different goroutines; under -race this is the probe for shared node
// storage (each shard owns its arena). Without -race it still pins that
// the restart-heavy run is identical for one and two workers.
func TestShardedRestartsRaceFree(t *testing.T) {
	// Real concurrency needs at least two Ps, even on a one-CPU host.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))

	// Scale 0.25 is the smallest default world whose public users span
	// two /16 blocks, so both shards restart clients.
	wp := blgen.DefaultParams(1)
	wp.Scale = 0.25
	w := blgen.Generate(wp)
	const horizon = 5 * time.Minute

	run := func(workers int) *Swarm {
		s, err := BuildSwarm(w, SwarmConfig{
			Seed: 1, Shards: 2, ShardWorkers: workers, Compact: true,
			// About one restart per public user every 15 s of virtual time.
			RestartsPerDay: 6000, ChurnHorizon: horizon,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.RunFor(horizon)
		return s
	}
	seq, par := run(1), run(2)

	moved, shardsMoved := 0, map[int]bool{}
	for j, ep := range seq.Endpoints {
		if ep != par.Endpoints[j] {
			t.Fatalf("endpoint %d: %v with 1 worker, %v with 2", j, ep, par.Endpoints[j])
		}
		if w.BTUsers[j].Port != ep.Port {
			moved++
			shardsMoved[seq.Group.ShardFor(ep.Addr).Index()] = true
		}
	}
	if moved < 100 || len(shardsMoved) < 2 {
		t.Fatalf("restarts too sparse to probe anything: %d endpoints moved on %d shards", moved, len(shardsMoved))
	}
	if a, b := seq.NetStats(), par.NetStats(); a != b {
		t.Fatalf("fabric stats differ: 1 worker %+v, 2 workers %+v", a, b)
	}
}
