package core

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/blocklist"
	"github.com/reuseblock/reuseblock/internal/faults"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// TestStreamArtifactsMatchesBatch pins the streaming contract at the package
// level: concatenated chunks are byte-identical to the batch writers, with a
// window small enough to force many flushes.
func TestStreamArtifactsMatchesBatch(t *testing.T) {
	s, _ := smallStudy(t, 1)

	var natStream, obsStream bytes.Buffer
	chunks := 0
	err := s.StreamArtifacts(ArtifactSink{
		NATedHeader: "confirmed NATed addresses",
		NATedList: func(chunk []byte) error {
			chunks++
			natStream.Write(chunk)
			return nil
		},
		ObservedIPs: func(chunk []byte) error {
			chunks++
			obsStream.Write(chunk)
			return nil
		},
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if chunks < 2 {
		t.Fatalf("window 3 produced only %d chunks", chunks)
	}

	users := make(map[iputil.Addr]int, len(s.NATed))
	for _, o := range s.NATed {
		users[o.Addr] = o.Users
	}
	var natBatch bytes.Buffer
	if err := blocklist.WriteNATedList(&natBatch, users, "confirmed NATed addresses"); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(natStream.Bytes(), natBatch.Bytes()) {
		t.Errorf("streamed NATed list differs from batch (%d vs %d bytes)",
			natStream.Len(), natBatch.Len())
	}

	var obsBatch strings.Builder
	for _, a := range s.BTObserved.Sorted() {
		obsBatch.WriteString(a.String())
		obsBatch.WriteByte('\n')
	}
	if obsStream.String() != obsBatch.String() {
		t.Errorf("streamed observed list differs from batch (%d vs %d bytes)",
			obsStream.Len(), obsBatch.Len())
	}
}

// TestStreamArtifactsErrors checks that a failing sink aborts the stream
// with a wrapped error, for both artifacts, and that nil callbacks skip
// their artifact entirely.
func TestStreamArtifactsErrors(t *testing.T) {
	s, _ := smallStudy(t, 1)
	boom := errors.New("sink full")

	err := s.StreamArtifacts(ArtifactSink{
		NATedList: func([]byte) error { return boom },
	}, 0)
	if !errors.Is(err, boom) {
		t.Errorf("NATed sink error = %v, want wrapped %v", err, boom)
	}

	err = s.StreamArtifacts(ArtifactSink{
		ObservedIPs: func([]byte) error { return boom },
	}, 2)
	if !errors.Is(err, boom) {
		t.Errorf("observed sink error = %v, want wrapped %v", err, boom)
	}

	// A sink with no callbacks is a no-op, not a failure.
	if err := s.StreamArtifacts(ArtifactSink{}, 0); err != nil {
		t.Errorf("empty sink: %v", err)
	}
}

// TestRunStreaming runs the all-in-one entry point on a fresh study and
// checks the report arrives alongside the streamed bytes.
func TestRunStreaming(t *testing.T) {
	wp := blgen.TestParams(5)
	wp.Scale = 0.05
	s := NewStudy(Config{
		Seed:            5,
		World:           &wp,
		CrawlDuration:   2 * time.Hour,
		SurveyBlockFrac: 0.1,
		SurveyDuration:  24 * time.Hour,
	})
	var streamed int
	rep, err := s.RunStreaming(ArtifactSink{
		NATedList:   func(chunk []byte) error { streamed += len(chunk); return nil },
		ObservedIPs: func(chunk []byte) error { streamed += len(chunk); return nil },
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep == nil {
		t.Fatal("RunStreaming returned nil report")
	}
	if streamed == 0 {
		t.Error("RunStreaming streamed no bytes")
	}
}

// TestBuildSwarmSharded covers the sharded construction path and the Swarm
// dispatch helpers: the group fabric advances in lockstep, carries traffic,
// and rejects fault scenarios.
func TestBuildSwarmSharded(t *testing.T) {
	wp := blgen.TestParams(9)
	wp.Scale = 0.05
	w := blgen.Generate(wp)

	s, err := BuildSwarm(w, SwarmConfig{Seed: 1, Shards: 3, ShardWorkers: 2, Compact: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.Group.Shards()); got != 3 {
		t.Fatalf("sharded swarm runs on %d shards, want 3", got)
	}
	start := s.Now()
	s.RunFor(time.Minute)
	if got := s.Now().Sub(start); got != time.Minute {
		t.Errorf("RunFor advanced %v, want 1m", got)
	}
	st := s.NetStats()
	if st.Sent == 0 || st.Delivered == 0 {
		t.Errorf("sharded fabric carried no traffic: %+v", st)
	}
	// The crawler's vantage address must get a shard-local clock and socket.
	vantage := iputil.AddrFrom4(198, 18, 0, 1)
	if s.ClockAt(vantage) == nil {
		t.Fatal("ClockAt returned nil")
	}
	sock, err := s.Listen(netsim.Endpoint{Addr: vantage, Port: 6881})
	if err != nil {
		t.Fatal(err)
	}
	if ep, ok := sock.PublicEndpoint(); !ok || ep.Addr != vantage {
		t.Errorf("vantage endpoint = %v, %v", ep, ok)
	}

	if _, err := BuildSwarm(w, SwarmConfig{Seed: 1, Shards: 2, Faults: &faults.Scenario{}}, nil); err == nil {
		t.Error("sharded swarm with faults should be rejected")
	}
}
