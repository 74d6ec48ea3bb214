package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSimulatedCrawlBytesPinned pins blcrawl's simulated-mode bytes — the
// -out detection list, the -log message log, and stdout minus its wall-time
// line — for one small crawl, fault-free and under fault scenarios. The
// fleet tests only compare fleet runs against each other, so drift in the
// crawl bring-up they share with blcrawl would pass them; these digests
// catch it. Regenerate only for an intended change of crawl output.
func TestSimulatedCrawlBytesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated crawls")
	}
	pins := []struct {
		scenario         string
		out, log, stdout string
	}{
		{"",
			"2bf1f25b23412e8ac228093906fcce00bdac7134b5b039aba8e6610ad0b90143",
			"51fcbb61699dd96e113b884813586aa7c94cb22c3aa36df73ae48272f13d15ad",
			"b10fe0ebca14db3f4e57a93585130543d67e531ce5d8522ed48e1fea3b4a553e"},
		{"bursty",
			"0495e2ca0568ed2dc30cf1c9a337970192997a4016c00a10b9bc3ae6c0505841",
			"9133d61a0c2b9438d8c6cc7b8e2da26b82ed793c1930f4564554de2220f50169",
			"62f4004271c3d17f4288c9b3935d792e41b3df1f1c3d8d00b562feef2de29b65"},
		{"storm",
			"f9ef08f0b6630f0b2156f9ec5f95ef9d9ebe3debac9b1ae4585952c1da23afb8",
			"7b89a26d3c1e30990fad7a78d9bfd221f6dc8c615e8f92b212fad2741d9a3aca",
			"c7aed832c72dc7c8227d6f9216c0ba813e004c4088b840233f689f03fd64e115"},
		{"byzantine",
			"551f8a0bb14c58c409086aacd2fc3eb6fa24cae39d3e443b6c1a0e790658c225",
			"c019954e9468927f37363a19375a3b09c471e1b9346cf5e846c2f69126dcbeed",
			"f7960d0eb0c1e43116f736a1f29d8844af7e89765832448db2aee4d58a6e43ca"},
	}
	for _, p := range pins {
		name := p.scenario
		if name == "" {
			name = "fault-free"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			outPath := filepath.Join(dir, "nated.txt")
			logPath := filepath.Join(dir, "crawl.log")
			args := []string{"-seed", "1", "-scale", "0.05", "-duration", "2h",
				"-out", outPath, "-log", logPath}
			if p.scenario != "" {
				args = append(args, "-faults", p.scenario)
			}
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("blcrawl %v exited %d\nstderr: %s", args, code, stderr.String())
			}
			check := func(what string, b []byte, want string) {
				t.Helper()
				sum := sha256.Sum256(b)
				if got := hex.EncodeToString(sum[:]); got != want {
					t.Errorf("%s digest = %s, want %s", what, got, want)
				}
			}
			check("-out", readFile(t, outPath), p.out)
			check("-log", readFile(t, logPath), p.log)
			check("stdout", []byte(dropWallTime(stdout.String())), p.stdout)
		})
	}
}

// dropWallTime removes the "crawled ... in <wall time>" line, the only
// nondeterministic line of simulated-mode stdout.
func dropWallTime(s string) string {
	lines := strings.SplitAfter(s, "\n")
	kept := lines[:0]
	for _, l := range lines {
		if !strings.HasPrefix(l, "crawled ") {
			kept = append(kept, l)
		}
	}
	return strings.Join(kept, "")
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
