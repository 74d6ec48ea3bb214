package crawler

import (
	"github.com/reuseblock/reuseblock/internal/netsim"
)

// Tx is one outstanding query transaction: the wire ID, the node it went
// to, and everything needed to retransmit or score it. The crawler keeps a
// Tx alive across retries; it is released when a response arrives or the
// last retry times out.
type Tx struct {
	ID     string
	To     netsim.Endpoint
	IsPing bool
	// Data is the marshalled query, kept for retransmission.
	Data []byte
	// Attempts counts transmissions so far (1 after the first send).
	Attempts int
	// Stop cancels the currently armed response deadline.
	Stop func() bool
}

// TxManager correlates KRPC transactions with the node each query went to.
// A crawler legitimately has several queries outstanding to the same node at
// once — a discovery get_nodes and a verification bt_ping, or pings to two
// ports of one NATed address — so correlation is per transaction, and the
// outstanding count is the fleet's bounded in-flight request queue.
//
// It also owns the late-reply window: transactions whose query timed out are
// remembered (bounded, FIFO-evicted) so a response straggling in afterwards
// is recognised and counted instead of silently dropped.
//
// The manager is deliberately not goroutine-safe: crawler code is
// single-threaded by design (simulated swarms run on one event loop; real
// sockets serialise through the swarm mutex).
type TxManager struct {
	pending map[string]*Tx
	lateTx  map[string]netsim.Endpoint
	// lateOrder is the late window's FIFO eviction order.
	lateOrder []string
	lateMax   int
}

// NewTxManager returns a manager whose late-reply window remembers up to
// lateWindow timed-out transactions (the oldest are forgotten first).
func NewTxManager(lateWindow int) *TxManager {
	if lateWindow <= 0 {
		lateWindow = lateWindowMax
	}
	return &TxManager{
		pending: make(map[string]*Tx),
		lateTx:  make(map[string]netsim.Endpoint),
		lateMax: lateWindow,
	}
}

// Register adds a freshly sent query to the outstanding set.
func (m *TxManager) Register(t *Tx) {
	m.pending[t.ID] = t
}

// Get returns the outstanding transaction without resolving it (retry and
// timeout paths peek first).
func (m *TxManager) Get(id string) (*Tx, bool) {
	t, ok := m.pending[id]
	return t, ok
}

// Resolve removes a transaction whose response arrived, cancelling its
// deadline timer.
func (m *TxManager) Resolve(id string) (*Tx, bool) {
	t, ok := m.pending[id]
	if !ok {
		return nil, false
	}
	delete(m.pending, id)
	t.Stop()
	return t, true
}

// Fail removes a transaction whose deadline passed with every retry
// exhausted (the timer has already fired, so no Stop) and remembers it in
// the late-reply window.
func (m *TxManager) Fail(id string) (*Tx, bool) {
	t, ok := m.pending[id]
	if !ok {
		return nil, false
	}
	delete(m.pending, id)
	if len(m.lateOrder) >= m.lateMax {
		delete(m.lateTx, m.lateOrder[0])
		m.lateOrder = m.lateOrder[1:]
	}
	m.lateTx[id] = t.To
	m.lateOrder = append(m.lateOrder, id)
	return t, true
}

// ResolveLate pops a transaction from the late-reply window, returning the
// node its query went to. A transaction resolves late at most once.
func (m *TxManager) ResolveLate(id string) (netsim.Endpoint, bool) {
	to, ok := m.lateTx[id]
	if ok {
		delete(m.lateTx, id)
	}
	return to, ok
}

// InFlight returns the number of outstanding transactions — the fleet's
// bounded in-flight queue consults it before admitting new sends.
func (m *TxManager) InFlight() int { return len(m.pending) }

// CancelAll stops every outstanding deadline and clears the manager; the
// late window is kept (a stopping crawler still counts stragglers).
func (m *TxManager) CancelAll() {
	for _, t := range m.pending {
		t.Stop()
	}
	m.pending = make(map[string]*Tx)
}
