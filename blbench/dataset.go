package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"github.com/reuseblock/reuseblock/internal/blocklist"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/reuseapi"
)

// The serving workloads' dataset has the shape of the repository's serve
// benchmark: 100k NATed addresses and 512 dynamic prefixes.
const (
	serveNATed    = 100_000
	servePrefixes = 512
)

// Query mix proportions per 512 queries: NATed hits, dynamic-prefix hits
// and clean misses, as in the repository's serve benchmark.
const (
	mixNATed   = 256
	mixDynamic = 64
	mixClean   = 192
	batchSize  = 100
	numBatches = 16
)

// randAddr draws a unicast-looking address outside 0/8 and 221/8 up.
func randAddr(rng *rand.Rand) iputil.Addr {
	return iputil.AddrFrom4(byte(1+rng.Intn(220)), byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))
}

// serveData draws the serving workloads' dataset from seed.
func serveData(seed int64) *reuseapi.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &reuseapi.Dataset{
		NATUsers:        make(map[iputil.Addr]int, serveNATed),
		DynamicPrefixes: iputil.NewPrefixSet(),
	}
	for len(d.NATUsers) < serveNATed {
		d.NATUsers[randAddr(rng)] = 2 + rng.Intn(400)
	}
	for d.DynamicPrefixes.Len() < servePrefixes {
		d.DynamicPrefixes.Add(iputil.PrefixFrom(randAddr(rng), 16+rng.Intn(9)))
	}
	return d
}

// encodeDataset renders d as the two files blserve reads.
func encodeDataset(d *reuseapi.Dataset) (nated, dynamic []byte) {
	var nb, db bytes.Buffer
	_ = blocklist.WriteNATedList(&nb, d.NATUsers, "NATed addresses") // a bytes.Buffer cannot fail
	db.WriteString("# dynamic prefixes\n")
	for _, p := range d.DynamicPrefixes.Sorted() {
		fmt.Fprintln(&db, p)
	}
	return nb.Bytes(), db.Bytes()
}

// parseDataset reads the two files' bytes back, as blserve does.
func parseDataset(nated, dynamic []byte) (*reuseapi.Dataset, error) {
	users, err := blocklist.ParseNATedList(bytes.NewReader(nated))
	if err != nil {
		return nil, err
	}
	ps, err := blocklist.ParsePrefixList(bytes.NewReader(dynamic))
	if err != nil {
		return nil, err
	}
	return &reuseapi.Dataset{NATUsers: users, DynamicPrefixes: ps}, nil
}

// writeAtomic replaces path with b so a polling reader never sees a torn
// file.
func writeAtomic(path string, b []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// inputFiles are the two files one served dataset lives in.
type inputFiles struct{ nated, dynamic string }

func newInputFiles(dir string) inputFiles {
	return inputFiles{filepath.Join(dir, "nated.txt"), filepath.Join(dir, "dynamic.txt")}
}

func (f inputFiles) write(nated, dynamic []byte) error {
	if err := writeAtomic(f.nated, nated); err != nil {
		return err
	}
	return writeAtomic(f.dynamic, dynamic)
}

// buildMix draws the check mix and batch set from rng: NATed addresses from
// nated, dynamic hits inside dynamic, and random addresses, each with the
// verdict snap gives it. Kinds follow the expected verdict, so a random
// address that happens to be listed counts as a hit.
func buildMix(rng *rand.Rand, snap *reuseapi.Snapshot, nated []iputil.Addr, dynamic []iputil.Prefix) ([]checkQuery, []batchQuery) {
	var addrs []iputil.Addr
	for i := 0; i < mixNATed && len(nated) > 0; i++ {
		addrs = append(addrs, nated[rng.Intn(len(nated))])
	}
	for i := 0; i < mixDynamic && len(dynamic) > 0; i++ {
		p := dynamic[rng.Intn(len(dynamic))]
		addrs = append(addrs, p.Nth(rng.Intn(p.Size())))
	}
	for i := 0; i < mixClean; i++ {
		addrs = append(addrs, randAddr(rng))
	}
	rng.Shuffle(len(addrs), func(i, j int) { addrs[i], addrs[j] = addrs[j], addrs[i] })
	qs := make([]checkQuery, len(addrs))
	for i, a := range addrs {
		v := snap.Verdict(a)
		want, _ := json.Marshal(v) // a Verdict always marshals
		kind := kindClean
		switch {
		case v.NATed:
			kind = kindNATed
		case v.Dynamic:
			kind = kindDynamic
		}
		qs[i] = checkQuery{path: "/v1/check?ip=" + a.String(), want: append(want, '\n'), kind: kind}
	}
	batches := make([]batchQuery, numBatches)
	for b := range batches {
		ips := make([]string, batchSize)
		want := make([]reuseapi.Verdict, batchSize)
		for i := range ips {
			a := addrs[rng.Intn(len(addrs))]
			ips[i] = a.String()
			want[i] = snap.Verdict(a)
		}
		body, _ := json.Marshal(ips)
		batches[b] = batchQuery{body: body, want: want}
	}
	return qs, batches
}

// churnPlan is a seeded sequence of dataset rewrites, each replacing about
// 1% of the NATed addresses and 1% of the dynamic prefixes (about 2% of the
// entries change), that never changes the verdict of a protected address,
// so the check mix stays answerable whichever step is being served.
type churnPlan struct {
	steps []churnStep // steps[0] is the initial dataset
}

type churnStep struct {
	nated, dynamic []byte
}

// planChurn draws n rewrites of base from rng. protected addresses keep
// their verdict in every step; planChurn checks that against each step.
func planChurn(rng *rand.Rand, base *reuseapi.Dataset, protected []iputil.Addr, n int) (*churnPlan, error) {
	keep := make(map[iputil.Addr]bool, len(protected))
	for _, a := range protected {
		keep[a] = true
	}
	covers := func(p iputil.Prefix) bool {
		for _, a := range protected {
			if p.Contains(a) {
				return true
			}
		}
		return false
	}
	cur := &reuseapi.Dataset{NATUsers: make(map[iputil.Addr]int, len(base.NATUsers)), DynamicPrefixes: iputil.NewPrefixSet()}
	var volatile []iputil.Addr // current NATed members churn may remove
	for _, a := range base.SortedNATed() {
		cur.NATUsers[a] = base.NATUsers[a]
		if !keep[a] {
			volatile = append(volatile, a)
		}
	}
	var volatilePfx []iputil.Prefix
	for _, p := range base.DynamicPrefixes.Sorted() {
		cur.DynamicPrefixes.Add(p)
		if !covers(p) {
			volatilePfx = append(volatilePfx, p)
		}
	}
	want := make([]reuseapi.Verdict, len(protected))
	for i, a := range protected {
		want[i] = base.Verdict(a)
	}
	plan := &churnPlan{}
	nated, dyn := encodeDataset(cur)
	plan.steps = append(plan.steps, churnStep{nated, dyn})
	rNAT := max(1, len(base.NATUsers)/100)
	rPfx := max(1, base.DynamicPrefixes.Len()/100)
	for step := 1; step <= n; step++ {
		for i := 0; i < rNAT && len(volatile) > 0; i++ {
			j := rng.Intn(len(volatile))
			delete(cur.NATUsers, volatile[j])
			volatile[j] = volatile[len(volatile)-1]
			volatile = volatile[:len(volatile)-1]
		}
		for added := 0; added < rNAT; {
			a := randAddr(rng)
			if _, dup := cur.NATUsers[a]; dup || keep[a] {
				continue
			}
			cur.NATUsers[a] = 2 + rng.Intn(400)
			volatile = append(volatile, a)
			added++
		}
		next := iputil.NewPrefixSet()
		drop := map[iputil.Prefix]bool{}
		for i := 0; i < rPfx && len(volatilePfx) > 0; i++ {
			j := rng.Intn(len(volatilePfx))
			drop[volatilePfx[j]] = true
			volatilePfx[j] = volatilePfx[len(volatilePfx)-1]
			volatilePfx = volatilePfx[:len(volatilePfx)-1]
		}
		for _, p := range cur.DynamicPrefixes.Sorted() {
			if !drop[p] {
				next.Add(p)
			}
		}
		for added := 0; added < rPfx; {
			p := iputil.PrefixFrom(randAddr(rng), 16+rng.Intn(9))
			if next.Contains(p) || covers(p) {
				continue
			}
			next.Add(p)
			volatilePfx = append(volatilePfx, p)
			added++
		}
		cur.DynamicPrefixes = next
		for i, a := range protected {
			if got := cur.Verdict(a); got != want[i] {
				return nil, fmt.Errorf("churn step %d changed the verdict of protected %s", step, a)
			}
		}
		nated, dyn := encodeDataset(cur)
		plan.steps = append(plan.steps, churnStep{nated, dyn})
	}
	return plan, nil
}

// listHeaderTime extracts the generated stamp from a /v1/list body's
// header line.
func listHeaderTime(body []byte) (time.Time, error) {
	line, _, _ := bytes.Cut(body, []byte("\n"))
	const prefix = "# NATed reused addresses, generated "
	stamp, ok := bytes.CutPrefix(line, []byte(prefix))
	if !ok {
		return time.Time{}, fmt.Errorf("unexpected list header %q", line)
	}
	return time.Parse(time.RFC3339, string(stamp))
}
