//go:build e2e

package e2e

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/reuseblock/reuseblock/internal/obs"
)

// floodShedParams is the deliberately tiny operating point the flood
// scenario boots blserve with: a heavy gate two slots wide with a short
// queue so a 5x-capacity batch flood overloads it within milliseconds,
// and fast degrade/recover windows so one scenario can watch the whole
// mode cycle.
func floodShedParams() *ShedParams {
	return &ShedParams{
		CheapConcurrency: 8,
		HeavyConcurrency: 1,
		Queue:            4,
		Target:           time.Millisecond,
		MaxWait:          20 * time.Millisecond,
		DegradeAfter:     200 * time.Millisecond,
		RecoverAfter:     400 * time.Millisecond,
		DegradedBatch:    64,
	}
}

// holdHeavySlots models the classic expensive-endpoint exhaustion attack: a
// slow-loris batch POST. Admission happens when the request headers arrive,
// but the handler then blocks reading the request body — which this client
// trickles out a few bytes at a time, never finishing — so the heavy slot
// stays held for as long as the attacker likes. A holder whose request is
// rejected instead retries shortly, restamping the gate's pressure signal.
// Cancelling ctx aborts the uploads and releases everything.
func holdHeavySlots(ctx context.Context, baseURL string, n int) {
	for i := 0; i < n; i++ {
		go func() {
			client := &http.Client{} // deliberately no timeout: the hold IS the attack
			for ctx.Err() == nil {
				pr, pw := io.Pipe()
				req, err := http.NewRequestWithContext(ctx, http.MethodPost,
					baseURL+"/v1/check", pr)
				if err != nil {
					return
				}
				req.Header.Set("Content-Type", "application/json")
				go func() {
					// An endless JSON array, one element per tick. The
					// transport closes pr when the request ends, failing the
					// next write and ending this goroutine.
					if _, err := pw.Write([]byte(`["192.0.2.1"`)); err != nil {
						return
					}
					for {
						select {
						case <-ctx.Done():
							pw.CloseWithError(context.Canceled)
							return
						case <-time.After(100 * time.Millisecond):
						}
						if _, err := pw.Write([]byte(`,"192.0.2.1"`)); err != nil {
							return
						}
					}
				}()
				// Admitted: no response until the upload ends, so Do blocks
				// here until ctx cancels — that block IS the slot hold.
				// Shed: the 429 arrives mid-upload and Do returns.
				resp, err := client.Do(req)
				if err != nil {
					pr.CloseWithError(context.Canceled)
					if ctx.Err() != nil {
						return
					}
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				select {
				case <-ctx.Done():
					return
				case <-time.After(50 * time.Millisecond):
				}
			}
		}()
	}
}

// runOverloadFlood measures single-client capacity, then overloads the heavy
// endpoint class several times past its capacity: slow readers pin the
// one-slot heavy gate while ten paced clients flood batch POSTs into it, and
// ten closed-loop GET bystanders keep using the cheap path. The shed layer
// must keep bystander goodput within the SLO band (>= 70% of the measured
// single-client capacity), every rejection must carry the documented shape,
// /readyz must flip to 503 under the sustained overload and recover after,
// and the surviving verdicts must still match the oracle. The outcome is
// appended to the bench ledger.
func runOverloadFlood(s *Stack) error {
	served, err := s.ServedNATed()
	if err != nil {
		return err
	}
	if len(served) == 0 {
		return fmt.Errorf("nothing served to flood")
	}
	targets := append(served, "203.0.113.99", "192.0.2.1", "8.8.8.8")

	// Baseline: one closed-loop client on the cheap GET path defines the
	// capacity the SLO band is measured against.
	base := LoadGen{
		BaseURL:     s.BaseURL,
		Targets:     targets,
		Concurrency: 1,
		Duration:    time.Second,
	}
	if s.Short {
		base.Duration = 500 * time.Millisecond
	}
	baseline, err := base.Run()
	if err != nil {
		return fmt.Errorf("capacity baseline: %w", err)
	}
	if baseline.Errors > 0 || baseline.GoodputRPS == 0 {
		return fmt.Errorf("capacity baseline unhealthy: %+v", baseline)
	}

	// Pin the heavy gate first so the flood meets a saturated class.
	holdCtx, stopHold := context.WithCancel(context.Background())
	defer stopHold()
	holdHeavySlots(holdCtx, s.BaseURL, 2)
	time.Sleep(150 * time.Millisecond)

	dur := 3 * time.Second
	if s.Short {
		dur = 1500 * time.Millisecond
	}
	// The batch flood is paced, not closed-loop: offered heavy load stays
	// several times the (pinned) class capacity without the flood clients
	// monopolizing this box's CPU — the quantity under test is the server's
	// admission behaviour, not loopback bandwidth.
	flood := LoadGen{
		BaseURL:       s.BaseURL,
		Targets:       targets,
		Concurrency:   10,
		Duration:      dur,
		BatchFraction: 1,
		BatchSize:     500,
		PerWorkerRPS:  10,
	}
	// The bystanders are the paper-relevant traffic: enforcement points
	// doing single reuse checks while someone else floods the service.
	bystanders := LoadGen{
		BaseURL:     s.BaseURL,
		Targets:     targets,
		Concurrency: 10,
		Duration:    dur,
	}

	var sawDegraded atomic.Bool
	pollDone := make(chan struct{})
	pollStop := make(chan struct{})
	go func() {
		defer close(pollDone)
		for {
			select {
			case <-pollStop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			if code, _, err := s.Readyz(); err == nil && code == http.StatusServiceUnavailable {
				sawDegraded.Store(true)
			}
		}
	}()
	var floodRes, byRes LoadResult
	var floodErr, byErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		floodRes, floodErr = flood.Run()
	}()
	byRes, byErr = bystanders.Run()
	<-done
	close(pollStop)
	<-pollDone
	stopHold()
	if floodErr != nil {
		return fmt.Errorf("flood run: %w", floodErr)
	}
	if byErr != nil {
		return fmt.Errorf("bystander run: %w", byErr)
	}

	if floodRes.Shed == 0 {
		return fmt.Errorf("flood into a pinned heavy gate shed nothing; gate is not engaging: %+v", floodRes)
	}
	if floodRes.MalformedShed > 0 || byRes.MalformedShed > 0 {
		return fmt.Errorf("%d shed responses missing the documented Error shape or Retry-After",
			floodRes.MalformedShed+byRes.MalformedShed)
	}
	if floodRes.Errors > 0 || byRes.Errors > 0 {
		return fmt.Errorf("overload saw non-shed errors: flood %d, bystanders %d",
			floodRes.Errors, byRes.Errors)
	}
	if !sawDegraded.Load() {
		return fmt.Errorf("sustained flood never flipped /readyz to 503")
	}
	share := byRes.GoodputRPS / baseline.GoodputRPS
	if share < 0.7 {
		return fmt.Errorf("bystander goodput %0.f rps is %.0f%% of single-client capacity %0.f rps; SLO band is >= 70%% (bystanders: %+v)",
			byRes.GoodputRPS, share*100, baseline.GoodputRPS, byRes)
	}
	// Recovery: with the flood gone, /readyz polling alone must walk the
	// mode machine back to normal.
	if err := WaitFor(10*time.Second, 50*time.Millisecond, func() (bool, error) {
		code, _, err := s.Readyz()
		if err != nil {
			return false, err
		}
		return code == http.StatusOK, nil
	}); err != nil {
		return fmt.Errorf("/readyz never recovered after the flood: %w", err)
	}

	// The surviving service is still the same dataset.
	if err := s.CheckServedAgainstOracle(); err != nil {
		return err
	}

	return obs.AppendBench(OverloadRow(s.Cfg, flood.Concurrency+bystanders.Concurrency, dur,
		baseline.GoodputRPS, floodRes, byRes))
}

// runOverloadHotkey boots blserve with per-client rate limiting trusting
// X-Forwarded-For, then drives a CGNAT-style client mix: half the workers
// share one hot address, the rest are distinct well-behaved clients pacing
// under the limit. The hot key must be shed (well-formed), and — the
// paper's collateral-damage point inverted — the distinct clients must not
// lose a single request to their noisy neighbor.
func runOverloadHotkey(s *Stack) error {
	served, err := s.ServedNATed()
	if err != nil {
		return err
	}
	if len(served) == 0 {
		return fmt.Errorf("nothing served to load against")
	}

	const hot = "100.64.9.9"
	cold := []string{"203.0.113.1", "203.0.113.2", "203.0.113.3", "203.0.113.4"}
	lg := LoadGen{
		BaseURL:      s.BaseURL,
		Targets:      served,
		Concurrency:  8,
		Duration:     2 * time.Second,
		PerWorkerRPS: 25,
		// Four workers share the hot key (100 rps aggregate against a
		// 40 rps / burst-20 budget); four are distinct 25 rps clients
		// comfortably under it.
		ClientIPs: append([]string{hot, hot, hot, hot}, cold...),
	}
	res, err := lg.Run()
	if err != nil {
		return err
	}
	if res.MalformedShed > 0 {
		return fmt.Errorf("%d rate-limit rejections missing the documented shape", res.MalformedShed)
	}
	hc := res.PerClient[hot]
	if hc.Shed == 0 {
		return fmt.Errorf("hot key at 100 rps against a 40 rps budget was never rate limited: %+v", hc)
	}
	for _, ip := range cold {
		cc := res.PerClient[ip]
		if cc.Requests == 0 {
			return fmt.Errorf("well-behaved client %s sent nothing", ip)
		}
		if cc.Shed != 0 || cc.Errors != 0 {
			return fmt.Errorf("well-behaved client %s took collateral damage from the hot key: %+v", ip, cc)
		}
	}
	return nil
}
