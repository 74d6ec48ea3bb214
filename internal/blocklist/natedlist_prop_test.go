// Property tests for the NATed-list wire format against generated worlds'
// ground truth. External test package: testkit (whose worlds supply the
// gateway populations) imports blocklist, so an in-package import would
// cycle.
package blocklist_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/blocklist"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/testkit"
)

// TestWriteNATedListRoundTrip: for randomized worlds, Write then Parse must
// return exactly the written population with every user bound clamped to
// the confirmation minimum of 2 — the invariant every pipeline stage
// (blcrawl shard output, merge, blserve input) relies on.
func TestWriteNATedListRoundTrip(t *testing.T) {
	seeds := []int64{401, 402, 403, 404, 405, 406}
	if testing.Short() {
		seeds = seeds[:2]
	}
	gateways := 0
	for _, genSeed := range seeds {
		spec := testkit.GenWorldSpec(genSeed)
		world := blgen.Generate(spec.Params())

		// The written population: every gateway's true BT-user count —
		// including the 0- and 1-user gateways a real crawl would not
		// confirm, so the clamp-to-2 path is exercised by construction.
		users := map[iputil.Addr]int{}
		for addr, truth := range world.NATByIP {
			users[addr] = truth.BTUsers
		}
		if len(users) == 0 {
			t.Fatalf("world %d generated no NAT gateways", genSeed)
		}
		gateways += len(users)

		var buf bytes.Buffer
		header := fmt.Sprintf("prop world %d", genSeed)
		if err := blocklist.WriteNATedList(&buf, users, header); err != nil {
			t.Fatalf("world %d: write: %v", genSeed, err)
		}
		if !strings.HasPrefix(buf.String(), "# "+header+"\n") {
			t.Errorf("world %d: header comment not first line:\n%.80s", genSeed, buf.String())
		}

		parsed, err := blocklist.ParseNATedList(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("world %d: written list does not parse back: %v", genSeed, err)
		}
		if len(parsed) != len(users) {
			t.Errorf("world %d: round trip lost addresses: wrote %d, parsed %d",
				genSeed, len(users), len(parsed))
		}
		for addr, wrote := range users {
			want := wrote
			if want < 2 {
				want = 2 // the writer clamps sub-confirmation bounds up
			}
			if got, ok := parsed[addr]; !ok || got != want {
				t.Errorf("world %d: %s wrote users=%d, parsed %d (present=%v), want %d",
					genSeed, addr, wrote, got, ok, want)
			}
		}
	}
	if gateways == 0 {
		t.Error("no world produced a NAT gateway — generator regression")
	}
}

// failAfterWriter errors once n bytes have been attempted — a disk-full
// stand-in for exercising the writer's error propagation.
type failAfterWriter struct {
	n    int
	fail error
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if w.n <= 0 {
		return 0, w.fail
	}
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, w.fail
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteNATedListPropagatesWriterErrors: a failing writer's error must
// surface no matter where in the list it strikes (header, entries, or the
// final flush) — a silently truncated shard file would poison every
// downstream merge.
func TestWriteNATedListPropagatesWriterErrors(t *testing.T) {
	users := map[iputil.Addr]int{}
	for i := 1; i <= 64; i++ {
		users[iputil.MustParseAddr(fmt.Sprintf("100.64.9.%d", i))] = 2 + i%7
	}
	var full bytes.Buffer
	if err := blocklist.WriteNATedList(&full, users, "error propagation"); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk full")
	for cap := 0; cap < full.Len(); cap += 97 {
		err := blocklist.WriteNATedList(&failAfterWriter{n: cap, fail: boom}, users, "error propagation")
		if !errors.Is(err, boom) {
			t.Fatalf("writer failing after %d bytes: WriteNATedList returned %v, want the writer's error", cap, err)
		}
	}
}

// TestWritePrefixListPropagatesWriterErrors: the same contract for the
// prefix list bldetect writes and blserve -dynamic reads.
func TestWritePrefixListPropagatesWriterErrors(t *testing.T) {
	var prefixes []iputil.Prefix
	for i := 0; i < 64; i++ {
		prefixes = append(prefixes, iputil.MustParsePrefix(fmt.Sprintf("100.64.%d.0/24", i)))
	}
	var full bytes.Buffer
	if err := blocklist.WritePrefixList(&full, prefixes, "error propagation"); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	for cap := 0; cap < full.Len(); cap += 97 {
		err := blocklist.WritePrefixList(&failAfterWriter{n: cap, fail: boom}, prefixes, "error propagation")
		if !errors.Is(err, boom) {
			t.Fatalf("writer failing after %d bytes: WritePrefixList returned %v, want the writer's error", cap, err)
		}
	}
}
