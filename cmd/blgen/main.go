// Command blgen generates a synthetic world and writes its raw datasets to
// disk: the RIPE Atlas connection log, one snapshot file per blocklist feed
// per observation day (plain format), and a ground-truth summary — the same
// inputs a researcher would collect for the real study.
//
// Usage:
//
//	blgen -out DIR [-seed N] [-scale F] [-days N]
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"github.com/reuseblock/reuseblock/internal/blgen"
	"github.com/reuseblock/reuseblock/internal/blocklist"
	"github.com/reuseblock/reuseblock/internal/iputil"
	"github.com/reuseblock/reuseblock/internal/pfx2as"
	"github.com/reuseblock/reuseblock/internal/ripeatlas"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its exit code and streams surfaced so tests can drive the
// command in-process: 0 on success (including -h), 2 on flag errors, 1 on
// runtime failures.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("blgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out   = fs.String("out", "", "output directory (required)")
		seed  = fs.Int64("seed", 1, "world seed")
		scale = fs.Float64("scale", 0.25, "world scale")
		days  = fs.Int("days", 0, "limit snapshot output to the first N observation days")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *out == "" {
		fmt.Fprintln(stderr, "blgen: -out is required")
		return 1
	}
	if err := generate(*out, *seed, *scale, *days, stdout); err != nil {
		fmt.Fprintln(stderr, "blgen:", err)
		return 1
	}
	return 0
}

func generate(out string, seed int64, scale float64, days int, stdout io.Writer) error {
	wp := blgen.DefaultParams(seed)
	wp.Scale = scale
	w := blgen.Generate(wp)

	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	// RIPE connection logs.
	ripePath := filepath.Join(out, "ripe-connection-logs.csv")
	rf, err := os.Create(ripePath)
	if err != nil {
		return err
	}
	if err := ripeatlas.WriteLogs(rf, w.RIPELogs); err != nil {
		return err
	}
	if err := rf.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d RIPE log entries to %s\n", len(w.RIPELogs), ripePath)

	// Daily feed snapshots.
	snapDir := filepath.Join(out, "feeds")
	if err := os.MkdirAll(snapDir, 0o755); err != nil {
		return err
	}
	nDays := len(w.Collection.Days())
	if days > 0 && days < nDays {
		nDays = days
	}
	written := 0
	for fi, feed := range w.Registry.Feeds {
		for d := 0; d < nDays; d++ {
			addrs := iputil.NewSet()
			for _, a := range w.Collection.FeedAddrs(fi).Sorted() {
				if w.Collection.Present(fi, d, a) {
					addrs.Add(a)
				}
			}
			if addrs.Len() == 0 {
				continue
			}
			date := w.Collection.Days()[d].Format("2006-01-02")
			path := filepath.Join(snapDir, fmt.Sprintf("%s_%s.txt", feed.Name, date))
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			header := fmt.Sprintf("%s snapshot %s (maintainer: %s, type: %s)",
				feed.Name, date, feed.Maintainer, feed.Type)
			if err := blocklist.WritePlain(f, addrs, header); err != nil {
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			written++
		}
	}
	fmt.Fprintf(stdout, "wrote %d feed snapshots to %s\n", written, snapDir)

	// pfx2as snapshot so blanalyze can aggregate per AS.
	pfxPath := filepath.Join(out, "pfx2as.txt")
	pf, err := os.Create(pfxPath)
	if err != nil {
		return err
	}
	tbl := pfx2as.New()
	for _, a := range w.ASes {
		for _, pi := range a.Prefixes {
			tbl.Add(pi.Prefix, pi.ASN)
		}
	}
	if err := pfx2as.Write(pf, tbl); err != nil {
		return err
	}
	if err := pf.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d pfx2as entries to %s\n", tbl.Len(), pfxPath)

	// Ground truth.
	gtPath := filepath.Join(out, "ground-truth.txt")
	gt, err := os.Create(gtPath)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(gt)
	fmt.Fprintf(bw, "# ground truth for seed=%d scale=%g\n", seed, scale)
	fmt.Fprintf(bw, "# nat <public-addr> <total-users> <bt-users> <restricted>\n")
	for _, n := range w.NATs {
		fmt.Fprintf(bw, "nat %s %d %d %v\n", n.Addr, n.TotalUsers, n.BTUsers, n.Restricted)
	}
	fmt.Fprintf(bw, "# dynamic-pool <prefix> (daily-or-faster reallocation)\n")
	for _, p := range w.TrueFastDynamic.Sorted() {
		fmt.Fprintf(bw, "dynamic-pool %s\n", p)
	}
	// bufio keeps the first write error; Flush reports it.
	err = bw.Flush()
	if cerr := gt.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote ground truth (%d NATs, %d fast pools) to %s\n",
		len(w.NATs), w.TrueFastDynamic.Len(), gtPath)
	return nil
}
