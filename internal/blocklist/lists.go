package blocklist

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"github.com/reuseblock/reuseblock/internal/iputil"
)

// ParseNATedList reads a NATed-address list: plain addresses, optionally
// followed by a user count ("addr<TAB>users" or blcrawl -replay's
// "addr users>=N ports=M" form). Addresses without a count get the minimum
// bound of 2.
func ParseNATedList(r io.Reader) (map[iputil.Addr]int, error) {
	out := map[iputil.Addr]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		addr, err := iputil.ParseAddr(fields[0])
		if err != nil {
			return nil, fmt.Errorf("blocklist: NATed list line %d: %w", line, err)
		}
		users := 2
		if len(fields) > 1 {
			tok := strings.TrimPrefix(fields[1], "users>=")
			if n, err := strconv.Atoi(tok); err == nil && n >= 2 {
				users = n
			}
		}
		out[addr] = users
	}
	return out, sc.Err()
}

// WriteNATedList writes a NATed-address list in the "addr<TAB>users" form
// ParseNATedList reads back (see AppendNATedLine), sorted by address with
// an optional header comment.
func WriteNATedList(w io.Writer, users map[iputil.Addr]int, header string) error {
	bw := bufio.NewWriter(w)
	if header != "" {
		if _, err := fmt.Fprintf(bw, "# %s\n", header); err != nil {
			return err
		}
	}
	addrs := make([]iputil.Addr, 0, len(users))
	for a := range users {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	var line []byte
	for _, a := range addrs {
		line = AppendNATedLine(line[:0], a, users[a])
		if _, err := bw.Write(line); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// AppendNATedLine appends one NATed-list line, "addr<TAB>users\n", to b —
// the line format of WriteNATedList and of streamed study artifacts. A
// bound below the confirmation minimum of 2 is clamped up so a round trip
// never loses an address.
func AppendNATedLine(b []byte, a iputil.Addr, users int) []byte {
	b = a.AppendText(b)
	b = append(b, '\t')
	b = strconv.AppendInt(b, int64(max(users, 2)), 10)
	return append(b, '\n')
}

// ParsePrefixList reads one CIDR prefix per line ('#' comments allowed) —
// the bldetect -prefixes-out format.
func ParsePrefixList(r io.Reader) (*iputil.PrefixSet, error) {
	out := iputil.NewPrefixSet()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		p, err := iputil.ParsePrefix(text)
		if err != nil {
			return nil, fmt.Errorf("blocklist: prefix list line %d: %w", line, err)
		}
		out.Add(p)
	}
	return out, sc.Err()
}

// WritePrefixList writes one CIDR prefix per line, in the given order, with
// an optional header comment — the format ParsePrefixList reads back.
func WritePrefixList(w io.Writer, prefixes []iputil.Prefix, header string) error {
	// bufio keeps the first write error; Flush reports it.
	bw := bufio.NewWriter(w)
	if header != "" {
		fmt.Fprintf(bw, "# %s\n", header)
	}
	for _, p := range prefixes {
		bw.WriteString(p.String())
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
