package crawler

import (
	"fmt"
	"testing"

	"github.com/reuseblock/reuseblock/internal/netsim"
)

func txTo(id string, ep netsim.Endpoint, stopped *int) *Tx {
	return &Tx{ID: id, To: ep, Stop: func() bool { *stopped++; return true }}
}

func TestTxManagerRegisterResolve(t *testing.T) {
	m := NewTxManager(4)
	ep := netsim.Endpoint{Addr: 0x0a000001, Port: 6881}
	var stopped int
	m.Register(txTo("aa", ep, &stopped))
	m.Register(txTo("ab", ep, &stopped))

	if got := m.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}
	if tx, ok := m.Get("aa"); !ok || tx.ID != "aa" {
		t.Fatalf("Get(aa) = %v, %v", tx, ok)
	}

	tx, ok := m.Resolve("aa")
	if !ok || tx.To != ep {
		t.Fatalf("Resolve(aa) = %v, %v", tx, ok)
	}
	if stopped != 1 {
		t.Fatalf("Resolve did not cancel the deadline: stopped = %d", stopped)
	}
	if m.InFlight() != 1 {
		t.Fatalf("after resolve: inflight %d, want 1", m.InFlight())
	}
	if _, ok := m.Resolve("aa"); ok {
		t.Fatal("double Resolve succeeded")
	}
	if _, ok := m.Resolve("zz"); ok {
		t.Fatal("Resolve of unknown tx succeeded")
	}
}

func TestTxManagerFailFeedsLateWindow(t *testing.T) {
	m := NewTxManager(4)
	ep := netsim.Endpoint{Addr: 0x0a000002, Port: 6881}
	var stopped int
	m.Register(txTo("aa", ep, &stopped))

	tx, ok := m.Fail("aa")
	if !ok || tx.To != ep {
		t.Fatalf("Fail(aa) = %v, %v", tx, ok)
	}
	if stopped != 0 {
		t.Fatal("Fail must not Stop: the deadline timer already fired")
	}
	if m.InFlight() != 0 {
		t.Fatalf("failed tx still accounted: inflight %d", m.InFlight())
	}

	to, ok := m.ResolveLate("aa")
	if !ok || to != ep {
		t.Fatalf("ResolveLate(aa) = %v, %v", to, ok)
	}
	if _, ok := m.ResolveLate("aa"); ok {
		t.Fatal("a transaction resolved late twice")
	}
	if _, ok := m.Fail("aa"); ok {
		t.Fatal("Fail of already-failed tx succeeded")
	}
}

// TestTxManagerLateWindowFIFO: the late window is bounded and forgets the
// oldest timed-out transaction first.
func TestTxManagerLateWindowFIFO(t *testing.T) {
	m := NewTxManager(3)
	ep := netsim.Endpoint{Addr: 0x0a000003, Port: 6881}
	var stopped int
	for i := 0; i < 5; i++ {
		id := fmt.Sprintf("t%d", i)
		m.Register(txTo(id, ep, &stopped))
		m.Fail(id)
	}
	// Window holds 3; t0 and t1 were evicted.
	for _, id := range []string{"t0", "t1"} {
		if _, ok := m.ResolveLate(id); ok {
			t.Fatalf("evicted tx %s still in late window", id)
		}
	}
	for _, id := range []string{"t2", "t3", "t4"} {
		if to, ok := m.ResolveLate(id); !ok || to != ep {
			t.Fatalf("ResolveLate(%s) = %v, %v", id, to, ok)
		}
	}
}

func TestTxManagerDefaultLateWindow(t *testing.T) {
	m := NewTxManager(0)
	if m.lateMax != lateWindowMax {
		t.Fatalf("lateMax = %d, want default %d", m.lateMax, lateWindowMax)
	}
}

func TestTxManagerCancelAll(t *testing.T) {
	m := NewTxManager(4)
	ep1 := netsim.Endpoint{Addr: 0x0a000004, Port: 6881}
	ep2 := netsim.Endpoint{Addr: 0x0a000005, Port: 6881}
	var stopped int
	m.Register(txTo("aa", ep1, &stopped))
	m.Register(txTo("ab", ep2, &stopped))
	m.Register(txTo("ac", ep2, &stopped))
	m.Fail("ac") // seed the late window before cancelling

	m.CancelAll()
	if stopped != 2 {
		t.Fatalf("CancelAll stopped %d deadlines, want 2", stopped)
	}
	if m.InFlight() != 0 {
		t.Fatalf("CancelAll left accounting: inflight %d", m.InFlight())
	}
	// The late window survives shutdown so stragglers still count.
	if to, ok := m.ResolveLate("ac"); !ok || to != ep2 {
		t.Fatalf("late window lost across CancelAll: %v, %v", to, ok)
	}
	// The manager stays usable after CancelAll.
	m.Register(txTo("ad", ep1, &stopped))
	if m.InFlight() != 1 {
		t.Fatalf("manager unusable after CancelAll: inflight %d", m.InFlight())
	}
}
