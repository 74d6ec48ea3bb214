package main

import (
	"bytes"
	"fmt"
	"time"

	"github.com/reuseblock/reuseblock/internal/bencode"
	"github.com/reuseblock/reuseblock/internal/core"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/krpc"
)

// replayCrawl times the codec and address-set layers over exactly the
// traffic the traced crawl captured: every payload the crawler received is
// decoded (krpc and raw bencode), every payload it sent is decoded and
// re-encoded — which must reproduce the sent bytes — and the addresses the
// crawler observed (senders and find_node nodes, in scope) are added to and
// looked up in an iputil.Set, which must cover Study.Run's observed set.
func replayCrawl(r *run, t *tracedResult, st *core.Study) error {
	acc := t.acc
	recvN, sentN := acc.recv.len(), acc.sent.len()
	if recvN == 0 || sentN == 0 {
		return fmt.Errorf("traced crawl captured %d received and %d sent payloads", recvN, sentN)
	}
	r.setLayer("krpc.bytes_per_msg", float64(len(acc.recv.buf)+len(acc.sent.buf))/float64(recvN+sentN))

	var stream []iputil.Addr
	decoded := 0
	r.setLayer("krpc.decode_ns", timePerOp(recvN, func(i int) {
		if _, err := krpc.Unmarshal(acc.recv.at(i)); err == nil {
			decoded++
		}
	}))
	for i := 0; i < recvN; i++ {
		m, err := krpc.Unmarshal(acc.recv.at(i))
		if err != nil {
			continue
		}
		if m.Kind == krpc.KindResponse {
			stream = append(stream, acc.from[i])
			for _, n := range m.Nodes {
				stream = append(stream, n.Addr)
			}
		}
	}
	r.setLayer("bencode.decode_ns", timePerOp(recvN, func(i int) { _, _ = bencode.Decode(acc.recv.at(i)) }))
	r.setExtra("krpc.undecodable", "count", float64(recvN-decoded))

	msgs := make([]*krpc.Message, sentN)
	for i := range msgs {
		m, err := krpc.Unmarshal(acc.sent.at(i))
		if err != nil {
			r.tally.fail(fmt.Sprintf("sent payload %d does not decode: %v", i, err))
			return nil
		}
		msgs[i] = m
	}
	mismatch := 0
	r.setLayer("krpc.encode_ns", timePerOp(sentN, func(i int) {
		b, err := msgs[i].Marshal()
		if err != nil || !bytes.Equal(b, acc.sent.at(i)) {
			mismatch++
		}
	}))
	if mismatch > 0 {
		r.tally.fail(fmt.Sprintf("%d sent payloads do not re-encode to the bytes sent", mismatch))
	} else {
		r.tally.ok()
	}

	inScope := stream[:0]
	for _, a := range stream {
		if t.scope == nil || t.scope(a) {
			inScope = append(inScope, a)
		}
	}
	stream = inScope
	set := iputil.NewSet()
	r.setLayer("ipset.add_ns", timePerOp(len(stream), func(i int) { set.Add(stream[i]) }))
	missing := 0
	r.setLayer("ipset.contains_ns", timePerOp(len(stream), func(i int) {
		if !set.Contains(stream[i]) {
			missing++
		}
	}))
	st.BTObserved.Iterate(func(a iputil.Addr) bool {
		if !set.Contains(a) {
			missing++
		}
		return true
	})
	if missing > 0 {
		r.tally.fail(fmt.Sprintf("replayed address set misses %d observed addresses", missing))
	} else {
		r.tally.ok()
	}
	r.setExtra("ipset.stream", "count", float64(len(stream)))
	return nil
}

// timePerOp calls fn over indices 0..n-1 once and returns nanoseconds per
// call; the captured traffic is large enough that one pass is a stable
// figure.
func timePerOp(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	t := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t).Nanoseconds()) / float64(n)
}
