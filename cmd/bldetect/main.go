// Command bldetect runs the paper's dynamic-address detection pipeline
// (§3.2) over a RIPE Atlas connection log in the CSV format produced by
// cmd/blgen (or ripeatlas.WriteLogs), printing the funnel, the knee
// threshold, and the detected dynamic /24 prefixes.
//
// Usage:
//
//	bldetect -logs FILE [-min-alloc N] [-expand BITS] [-prefixes-out FILE]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/reuseblock/reuseblock/internal/blocklist"
	"github.com/reuseblock/reuseblock/internal/ripeatlas"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its exit code and streams surfaced so tests can drive the
// command in-process: 0 on success (including -h), 2 on flag errors, 1 on
// runtime failures.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bldetect", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		logsPath = fs.String("logs", "", "RIPE connection-log CSV (required)")
		minAlloc = fs.Int("min-alloc", 0, "override the knee threshold with a fixed allocation count")
		expand   = fs.Int("expand", 24, "prefix length dynamic addresses are expanded to")
		maxMean  = fs.Duration("max-mean-change", 24*time.Hour, "maximum mean time between changes")
		outPath  = fs.String("prefixes-out", "", "write detected dynamic prefixes to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *logsPath == "" {
		fmt.Fprintln(stderr, "bldetect: -logs is required")
		return 1
	}
	f, err := os.Open(*logsPath)
	if err != nil {
		fmt.Fprintln(stderr, "bldetect:", err)
		return 1
	}
	entries, err := ripeatlas.ReadLogs(f)
	f.Close()
	if err != nil {
		fmt.Fprintln(stderr, "bldetect:", err)
		return 1
	}
	fmt.Fprintf(stdout, "read %d log entries\n", len(entries))

	res := ripeatlas.Detect(entries, ripeatlas.DetectOptions{
		MinAllocations:        *minAlloc,
		ExpandBits:            *expand,
		MaxMeanChangeInterval: *maxMean,
	})
	fmt.Fprintf(stdout, "probes:                         %d\n", res.TotalProbes)
	fmt.Fprintf(stdout, "  multi-AS (excluded):          %d\n", res.MultiASProbes)
	fmt.Fprintf(stdout, "  never changed address:        %d\n", res.NoChangeProbes)
	fmt.Fprintf(stdout, "  changed within one AS:        %d\n", res.SameASProbes)
	fmt.Fprintf(stdout, "knee threshold (allocations):   %d\n", res.KneeThreshold)
	fmt.Fprintf(stdout, "  frequent (>= threshold):      %d\n", res.FrequentProbes)
	fmt.Fprintf(stdout, "  changing daily (final):       %d\n", res.DailyProbes)
	fmt.Fprintf(stdout, "addresses observed:             %d\n", res.AllAddresses.Len())
	fmt.Fprintf(stdout, "dynamic addresses:              %d\n", res.DynamicAddresses.Len())
	fmt.Fprintf(stdout, "dynamic /%d prefixes:           %d\n", *expand, res.DynamicPrefixes.Len())

	if *outPath != "" {
		out, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintln(stderr, "bldetect:", err)
			return 1
		}
		header := fmt.Sprintf("dynamic prefixes detected by bldetect (threshold %d)", res.KneeThreshold)
		err = blocklist.WritePrefixList(out, res.DynamicPrefixes.Sorted(), header)
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(stderr, "bldetect:", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d prefixes to %s\n", res.DynamicPrefixes.Len(), *outPath)
	}
	return 0
}
