package netsim

import (
	"fmt"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// fabricRun is what one scripted workload observed on a fabric.
type fabricRun struct {
	deliveries []string
	trace      []TraceEvent
	stats      Stats
}

// echoWorkload scripts ping-pong traffic — plus a NATed client behind a
// full-cone gateway — over network n, advancing time with run, and records
// every delivery in order.
func echoWorkload(t *testing.T, n *Network, run func(time.Duration)) []string {
	t.Helper()
	var log []string
	var eps []Endpoint
	for b := 0; b < 6; b++ {
		eps = append(eps, Endpoint{Addr: iputil.Addr(uint32(b)<<16 | 10), Port: 7000})
	}
	socks := make([]Socket, len(eps))
	for i, ep := range eps {
		s, err := n.Listen(ep)
		if err != nil {
			t.Fatalf("Listen %s: %v", ep, err)
		}
		i := i
		s.SetHandler(func(from Endpoint, payload []byte) {
			log = append(log, fmt.Sprintf("%s n%d<-%s %q",
				n.Clock().Now().Format("15:04:05.000000"), i, from, payload))
			if len(payload) < 12 {
				socks[i].Send(from, append([]byte("re:"), payload...))
			}
		})
		socks[i] = s
	}
	nat, err := NewNAT(n, NATConfig{PublicAddr: iputil.Addr(0x0009000a), MappingTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := nat.Listen(iputil.Addr(0xc0a80101), 5000)
	if err != nil {
		t.Fatal(err)
	}
	inner.SetHandler(func(from Endpoint, payload []byte) {
		log = append(log, fmt.Sprintf("%s nat<-%s %q", n.Clock().Now().Format("15:04:05.000000"), from, payload))
	})
	for round := 0; round < 3; round++ {
		for i, s := range socks {
			for j := range eps {
				if i != j {
					s.Send(eps[j], []byte(fmt.Sprintf("p%d-%d-%d", round, i, j)))
				}
			}
			inner.Send(eps[i], []byte(fmt.Sprintf("q%d-%d", round, i)))
		}
		run(700 * time.Millisecond)
	}
	return log
}

// faultyConfig returns a lossy, jittered config whose Trace hook records
// into r and whose FaultSend hook drops or rewrites every few datagrams.
// Each call builds fresh hooks, so two fabrics share no state.
func faultyConfig(r *fabricRun) Config {
	sent := 0
	return Config{
		Loss:          0.15,
		LatencyBase:   5 * time.Millisecond,
		LatencyJitter: 40 * time.Millisecond,
		Seed:          99,
		Trace:         func(ev TraceEvent) { r.trace = append(r.trace, ev) },
		FaultSend: func(from, to Endpoint, p []byte) []byte {
			sent++
			switch sent % 11 {
			case 0:
				return nil // drop
			case 5:
				return append([]byte("!"), p...) // rewrite
			}
			return p
		},
	}
}

// TestOneShardGroupMatchesMonolithic pins the one-shard seeding rule where
// it lives: the same scripted workload over NewClock+NewNetwork and over
// NewShardGroup(1, ...) must deliver the same datagrams at the same instants,
// emit the same trace events, and count the same Stats.
func TestOneShardGroupMatchesMonolithic(t *testing.T) {
	var mono, group fabricRun

	clock := NewClock()
	monoNet, err := NewNetwork(clock, faultyConfig(&mono))
	if err != nil {
		t.Fatal(err)
	}
	mono.deliveries = echoWorkload(t, monoNet, func(d time.Duration) { clock.RunFor(d) })
	mono.stats = monoNet.Stats()

	g, err := NewShardGroup(1, 4, faultyConfig(&group))
	if err != nil {
		t.Fatalf("one-shard group with fault hooks: %v", err)
	}
	group.deliveries = echoWorkload(t, g.Shards()[0].Net, g.RunFor)
	group.stats = g.Stats()

	if len(mono.deliveries) == 0 || mono.stats.Dropped == 0 || mono.stats.FaultDropped == 0 {
		t.Fatalf("workload too tame to pin anything: %d deliveries, %+v", len(mono.deliveries), mono.stats)
	}
	if len(group.deliveries) != len(mono.deliveries) {
		t.Fatalf("one-shard group delivered %d datagrams, monolithic %d", len(group.deliveries), len(mono.deliveries))
	}
	for i := range mono.deliveries {
		if group.deliveries[i] != mono.deliveries[i] {
			t.Fatalf("delivery %d diverges:\n group %s\n  mono %s", i, group.deliveries[i], mono.deliveries[i])
		}
	}
	if len(group.trace) != len(mono.trace) {
		t.Fatalf("one-shard group traced %d events, monolithic %d", len(group.trace), len(mono.trace))
	}
	for i := range mono.trace {
		if group.trace[i] != mono.trace[i] {
			t.Fatalf("trace event %d diverges:\n group %+v\n  mono %+v", i, group.trace[i], mono.trace[i])
		}
	}
	if group.stats != mono.stats {
		t.Fatalf("Stats diverge: group %+v, mono %+v", group.stats, mono.stats)
	}
	if want := Epoch.Add(3 * 700 * time.Millisecond); !g.Now().Equal(want) || !clock.Now().Equal(want) {
		t.Fatalf("clocks at %v (group) / %v (mono), want %v", g.Now(), clock.Now(), want)
	}
}

// TestOneShardGroupAcceptsMonolithicConfig pins what only n > 1 refuses: a
// one-shard group takes fault hooks and a zero LatencyBase, like NewNetwork.
func TestOneShardGroupAcceptsMonolithicConfig(t *testing.T) {
	hook := func(from, to Endpoint, p []byte) []byte { return p }
	if _, err := NewShardGroup(1, 1, Config{Seed: 1, FaultSend: hook, FaultDeliver: hook}); err != nil {
		t.Fatalf("one-shard group rejected a monolithic config: %v", err)
	}
}
