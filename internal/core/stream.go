package core

import (
	"fmt"

	"github.com/reuseblock/reuseblock/internal/blocklist"
	"github.com/reuseblock/reuseblock/internal/iputil"
)

// ArtifactSink receives a study's crawl artifacts incrementally, one bounded
// window at a time, so a paper-scale run never has to materialize a full
// artifact in memory (at 100× world scale the rendered lists alone reach
// hundreds of megabytes). Chunks arrive in ascending address order and
// concatenate to exactly the batch bytes: the NATed list matches
// blocklist.WriteNATedList over the same observations, the observed list is
// one address per line. Either callback may be nil to skip that artifact; a
// callback returning an error aborts the stream with that error. Callbacks
// must not retain the chunk slice — it is reused for the next window.
type ArtifactSink struct {
	// NATedHeader is the comment header for the NATed list ("" for none),
	// the counterpart of blocklist.WriteNATedList's header argument.
	NATedHeader string
	// NATedList receives successive windows of the rendered NATed-address
	// list (blocklist.AppendNATedLine lines).
	NATedList func(chunk []byte) error
	// ObservedIPs receives successive windows of the observed-address list,
	// one dotted-quad address per line.
	ObservedIPs func(chunk []byte) error
}

// streamWindow is the default number of entries per emitted chunk.
const streamWindow = 4096

// StreamArtifacts emits the crawl artifacts through sink in windows of at
// most window entries (<= 0 picks the default 4096). Peak extra heap is
// O(window), independent of world scale — the batch writers' whole-artifact
// buffers and sorted address slices are exactly what paper-scale runs
// cannot afford.
func (s *Study) StreamArtifacts(sink ArtifactSink, window int) error {
	if window <= 0 {
		window = streamWindow
	}
	buf := make([]byte, 0, 64*window)
	if sink.NATedList != nil {
		if sink.NATedHeader != "" {
			buf = append(buf, "# "...)
			buf = append(buf, sink.NATedHeader...)
			buf = append(buf, '\n')
		}
		n := 0
		for _, o := range s.NATed {
			buf = blocklist.AppendNATedLine(buf, o.Addr, o.Users)
			if n++; n == window {
				if err := sink.NATedList(buf); err != nil {
					return fmt.Errorf("core: streaming NATed list: %w", err)
				}
				buf, n = buf[:0], 0
			}
		}
		if len(buf) > 0 {
			if err := sink.NATedList(buf); err != nil {
				return fmt.Errorf("core: streaming NATed list: %w", err)
			}
			buf = buf[:0]
		}
	}
	if sink.ObservedIPs != nil && s.BTObserved != nil {
		n := 0
		var ferr error
		s.BTObserved.Iterate(func(a iputil.Addr) bool {
			buf = a.AppendText(buf)
			buf = append(buf, '\n')
			if n++; n == window {
				if ferr = sink.ObservedIPs(buf); ferr != nil {
					return false
				}
				buf, n = buf[:0], 0
			}
			return true
		})
		if ferr != nil {
			return fmt.Errorf("core: streaming observed list: %w", ferr)
		}
		if len(buf) > 0 {
			if err := sink.ObservedIPs(buf); err != nil {
				return fmt.Errorf("core: streaming observed list: %w", err)
			}
		}
	}
	return nil
}

// RunStreaming runs every study stage, then streams the crawl artifacts
// through sink in bounded windows. The report is built and returned as
// usual; only artifact rendering is windowed.
func (s *Study) RunStreaming(sink ArtifactSink, window int) (*Report, error) {
	rep, err := s.Run()
	if err != nil {
		return nil, err
	}
	return rep, s.StreamArtifacts(sink, window)
}
