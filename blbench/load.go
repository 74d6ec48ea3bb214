package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"time"

	"github.com/reuseblock/reuseblock/internal/reuseapi"
)

// checkQuery is one GET /v1/check with the answer the server must give.
type checkQuery struct {
	path string // /v1/check?ip=...
	want []byte // expected body: the verdict's JSON line
	kind int    // kindNATed, kindDynamic or kindClean
}

const (
	kindNATed = iota
	kindDynamic
	kindClean
)

// batchQuery is one POST /v1/check with its expected verdicts.
type batchQuery struct {
	body []byte
	want []reuseapi.Verdict
}

// window is the measurement window: percentiles and throughput are taken
// per window and the median across windows is reported, so a burst of CPU
// steal on a shared host moves one window, not the run. It equals the churn
// cadence so that under churn every window holds one reload; with half a
// cadence, half the windows held one and the median flipped between the
// two kinds from run to run.
const window = churnCadence

// heavyPeriod paces the list/batch connection: one GET /v1/list and one
// batch POST per period, back to back when the server falls behind. An
// operator syncing a list and a filter checking batches are periodic
// clients; a closed loop on a 1 MB body would instead let the split of the
// two processors between the connections decide every figure.
const heavyPeriod = 50 * time.Millisecond

// checkResult is what one closed-loop check connection measured.
type checkResult struct {
	tally
	okPerWin  []int64     // answered 200 with the right verdict, per window
	latencies [][]float64 // ms, per window; failures count as +Inf
	queried   [3]int64    // per kind
	listed    [3]int64    // per kind: answered as NATed (kindNATed) or dynamic (kindDynamic)
}

// heavyResult is what the list/batch connection measured.
type heavyResult struct {
	tally
	ok        int64
	listBytes int64      // compressed /v1/list bytes received
	lists     []seenList // each distinct /v1/list representation, in order
}

// seenList is one /v1/list representation the server sent.
type seenList struct {
	etag string
	gz   []byte
	at   time.Time
}

// newConnClient returns a client pinned to one keep-alive connection that
// never asks for or undoes compression on its own.
func newConnClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		},
		Timeout: 10 * time.Second,
	}
}

// windows is how many whole measurement windows fit in d.
func windows(d time.Duration) int { return max(int(d/window), 1) }

// runChecks drives GET /v1/check in a closed loop on one connection until
// deadline, starting at query offset first so two connections interleave
// the mix differently. Only requests started in a whole window are timed.
func runChecks(base string, qs []checkQuery, first int, start, deadline time.Time) checkResult {
	rc := newRawConn(base)
	defer rc.close()
	nWin := windows(deadline.Sub(start))
	res := checkResult{okPerWin: make([]int64, nWin), latencies: make([][]float64, nWin)}
	reqs := make([][]byte, len(qs))
	for i, q := range qs {
		reqs[i] = rc.request(q.path)
	}
	var buf bytes.Buffer
	for i := first; ; i++ {
		t := time.Now()
		if !t.Before(deadline) {
			break
		}
		q := &qs[i%len(qs)]
		err := rc.get(reqs[i%len(qs)], &buf)
		ms := float64(time.Since(t)) / float64(time.Millisecond)
		res.queried[q.kind]++
		w := int(t.Sub(start) / window)
		switch {
		case err != nil:
			res.fail(fmt.Sprintf("GET %s: %v", q.path, err))
			ms = math.Inf(1)
		case !bytes.Equal(buf.Bytes(), q.want) && !sameVerdict(buf.Bytes(), q.want):
			res.fail(fmt.Sprintf("GET %s: got %q, want %q", q.path, buf.Bytes(), q.want))
			ms = math.Inf(1)
		default:
			res.tally.ok()
			if w < nWin {
				res.okPerWin[w]++
			}
			if q.kind != kindClean {
				res.listed[q.kind]++
			}
		}
		if w < nWin {
			res.latencies[w] = append(res.latencies[w], ms)
		}
	}
	return res
}

// fetch performs req and reads a 200 body into buf.
func fetch(c *http.Client, req *http.Request, buf *bytes.Buffer) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s", req.Method, req.URL.Path, resp.Status)
	}
	return nil
}

// sameVerdict reports whether two verdict JSON bodies decode equal; the
// byte comparison is the fast path, this the fallback for formatting.
func sameVerdict(got, want []byte) bool {
	var g, w reuseapi.Verdict
	return json.Unmarshal(got, &g) == nil && json.Unmarshal(want, &w) == nil && g == w
}

// runHeavy sends a GET /v1/list (gzip, counted compressed, never
// decompressed on the measured path) and a batch POST /v1/check every
// heavyPeriod on one connection until deadline. Each new list ETag is kept
// with its body so the caller can check it against Compile afterwards.
func runHeavy(c *http.Client, base string, batches []batchQuery, start, deadline time.Time) heavyResult {
	var res heavyResult
	listReq, _ := http.NewRequest(http.MethodGet, base+"/v1/list", nil)
	listReq.Header.Set("Accept-Encoding", "gzip")
	var buf bytes.Buffer
	for i := 0; ; i++ {
		if i%2 == 0 {
			due := start.Add(time.Duration(i/2) * heavyPeriod)
			if !due.Before(deadline) {
				break
			}
			time.Sleep(time.Until(due))
			etag, err := fetchList(c, listReq, &buf)
			if err != nil {
				res.fail(err.Error())
				continue
			}
			res.ok++
			res.tally.ok()
			res.listBytes += int64(buf.Len())
			if n := len(res.lists); n == 0 || res.lists[n-1].etag != etag {
				res.lists = append(res.lists, seenList{etag: etag, gz: bytes.Clone(buf.Bytes()), at: time.Now()})
			}
			continue
		}
		b := &batches[(i/2)%len(batches)]
		req, _ := http.NewRequest(http.MethodPost, base+"/v1/check", bytes.NewReader(b.body))
		req.Header.Set("Content-Type", "application/json")
		if err := fetch(c, req, &buf); err != nil {
			res.fail(err.Error())
			continue
		}
		var got []reuseapi.Verdict
		if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
			res.fail("batch: " + err.Error())
			continue
		}
		if bad := firstMismatch(got, b.want); bad != "" {
			res.fail("batch: " + bad)
			continue
		}
		res.ok++
		res.tally.ok()
	}
	return res
}

// fetchList GETs a gzip /v1/list into buf and returns its ETag.
func fetchList(c *http.Client, req *http.Request, buf *bytes.Buffer) (string, error) {
	resp, err := c.Do(req)
	if err != nil {
		return "", err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET /v1/list: %s", resp.Status)
	}
	if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
		return "", fmt.Errorf("GET /v1/list: Content-Encoding %q, want gzip", ce)
	}
	return resp.Header.Get("ETag"), nil
}

func firstMismatch(got, want []reuseapi.Verdict) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d verdicts for %d addresses", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("%s: got %+v, want %+v", want[i].IP, got[i], want[i])
		}
	}
	return ""
}
