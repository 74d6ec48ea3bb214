package fleet

import (
	"reflect"
	"testing"

	"github.com/reuseblock/reuseblock/internal/crawler"
)

func TestProtocolReadyRoundTrip(t *testing.T) {
	frame, err := EncodeQuery("t1", MethodReady, Ready{Worker: 3, Shard: "3/4", PID: 1234})
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if d.IsAck || d.Method != MethodReady || d.TxID != "t1" {
		t.Fatalf("decoded %+v", d)
	}
	var r Ready
	if err := DecodeArgs(d.Args, &r); err != nil {
		t.Fatal(err)
	}
	if r != (Ready{Worker: 3, Shard: "3/4", PID: 1234}) {
		t.Fatalf("ready round trip: %+v", r)
	}
}

func TestProtocolHeartbeatRoundTrip(t *testing.T) {
	in := Heartbeat{Worker: 2, Sent: 100, Received: 80, InFlight: 7, NATed: 5, Done: 1}
	frame, err := EncodeQuery("t2", MethodHB, in)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	var hb Heartbeat
	if err := DecodeArgs(d.Args, &hb); err != nil {
		t.Fatal(err)
	}
	if hb != in {
		t.Fatalf("heartbeat round trip: %+v != %+v", hb, in)
	}
}

func TestProtocolDoneRoundTripPreservesStats(t *testing.T) {
	st := crawler.Stats{
		GetNodesSent: 100, GetNodesReplies: 70, PingsSent: 50, PingReplies: 40,
		Timeouts: 30, Retries: 4, LateReplies: 2, Evicted: 1,
		UniqueIPs: 60, UniqueNodeIDs: 90, NATedIPs: 12, MultiPortIPs: 14,
		ScopeSuppressed: 5, SimultaneousMax: 9, PingRoundsRun: 20, SweepsRun: 8,
		MessagesSent: 150, MessagesReceived: 110,
		ResponseRate: 110.0 / 150.0,
	}
	in := Done{Worker: 1, Shard: "1/2", OutFile: "/tmp/x.txt", Stats: ToWireStats(st), SawBootstrap: 1, TruePositives: 11}
	frame, err := EncodeQuery("t3", MethodDone, in)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	var dn Done
	if err := DecodeArgs(d.Args, &dn); err != nil {
		t.Fatal(err)
	}
	if dn.Worker != 1 || dn.Shard != "1/2" || dn.OutFile != "/tmp/x.txt" || dn.SawBootstrap != 1 || dn.TruePositives != 11 {
		t.Fatalf("done round trip: %+v", dn)
	}
	// The stats projection must reconstruct crawler.Stats exactly,
	// including the recomputed ResponseRate.
	if got := dn.Stats.Stats(); !reflect.DeepEqual(got, st) {
		t.Fatalf("stats round trip:\n got %+v\nwant %+v", got, st)
	}
}

func TestProtocolAck(t *testing.T) {
	frame, err := EncodeAck("t9")
	if err != nil {
		t.Fatal(err)
	}
	d, err := DecodeFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsAck || d.TxID != "t9" {
		t.Fatalf("ack decoded as %+v", d)
	}
}

func TestProtocolRejectsGarbage(t *testing.T) {
	bad := [][]byte{
		nil,
		[]byte("not bencode"),
		[]byte("i42e"),            // not a dict
		[]byte("d1:t2:t11:y1:qe"), // query without method
		[]byte("d1:t2:t11:y1:q1:q4:ping4:argsdee"), // unknown method
		[]byte("d1:t2:t11:y1:xe"),                  // unknown kind
	}
	for _, b := range bad {
		if _, err := DecodeFrame(b); err == nil {
			t.Errorf("DecodeFrame(%q) accepted garbage", b)
		}
	}
}

// TestProtocolQueryMissingArgs: a known method without an args dict is
// rejected rather than decoded into zero values.
func TestProtocolQueryMissingArgs(t *testing.T) {
	if _, err := DecodeFrame([]byte("d1:t2:t11:y1:q1:q8:fleet_hbe")); err == nil {
		t.Fatal("query without args accepted")
	}
}
