package main

import (
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/core"
)

// TestTracedStudyMatchesStudyRun pins the traced pipeline to Study.Run on a
// small world, monolithic and sharded. Run it under -race: on the sharded
// fabric the wrapped socket and clock are called from shard goroutines.
func TestTracedStudyMatchesStudyRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
	}{
		{"monolithic", 0},
		{"sharded", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wp := blgen.DefaultParams(1)
			wp.Scale = 0.05
			cfg := core.Config{Seed: 2, World: &wp, CrawlDuration: 2 * time.Hour, SkipICMP: true,
				Shards: tc.shards, Compact: tc.shards > 1, Workers: 2}
			w := blgen.Generate(wp)
			st := core.NewStudyFromWorld(w, cfg)
			if _, err := st.Run(); err != nil {
				t.Fatal(err)
			}
			r := &run{layer: map[string]metric{}, extra: map[string]metric{}, e2e: map[string]metric{}}
			tr := &tracer{}
			traced, err := tracedStudy(r, core.NewStudyFromWorld(w, cfg), tr, tr.begin("root", -1))
			if err != nil {
				t.Fatal(err)
			}
			if diff := sameCrawl(st, traced); diff != "" {
				t.Fatal(diff)
			}
			if len(st.NATed) == 0 {
				t.Fatal("study confirmed no NATed gateways; the comparison is vacuous")
			}
			if err := replayCrawl(r, traced, st); err != nil {
				t.Fatal(err)
			}
			if r.tally.failed != 0 {
				t.Fatalf("replay checks failed: %v", r.tally.examples)
			}
			for _, name := range []string{"crawler.recv_s", "krpc.decode_ns", "ipset.add_ns", "netsim.delivered"} {
				if r.layer[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, r.layer[name].Value)
				}
			}
		})
	}
}
