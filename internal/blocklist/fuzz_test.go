package blocklist

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParseNATedList drives the NATed-list parser — blserve -nated,
// blanalyze and the fleet merge read it from disk — with arbitrary bytes. It
// must never panic, and any list it accepts must come back as the same map
// after a WriteNATedList round trip.
func FuzzParseNATedList(f *testing.F) {
	for _, seed := range []string{natedListInput, badNATedList, "", "# only a comment\n",
		"100.64.0.1\t1\n100.64.0.1\t9\n", "10.0.0.1 users>=-3\r\n"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		users, err := ParseNATedList(strings.NewReader(in))
		if err != nil {
			return
		}
		var out strings.Builder
		if err := WriteNATedList(&out, users, "fuzz"); err != nil {
			t.Fatal(err)
		}
		back, err := ParseNATedList(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("written list does not reparse: %v\n%s", err, out.String())
		}
		if !reflect.DeepEqual(back, users) {
			t.Fatalf("round trip changed the list:\nparsed  %v\nreparsed %v", users, back)
		}
	})
}

// FuzzParsePrefixList drives the prefix-list parser — blserve -dynamic
// reads bldetect's -prefixes-out from disk — with arbitrary bytes. It must
// never panic, and any list it accepts must come back as the same set after
// WritePrefixList renders it.
func FuzzParsePrefixList(f *testing.F) {
	for _, seed := range []string{prefixListInput, badPrefixList, "", "10.0.0.7/24\n0.0.0.0/0\n", "1.2.3.4/32 # x\n"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, in string) {
		ps, err := ParsePrefixList(strings.NewReader(in))
		if err != nil {
			return
		}
		var out strings.Builder
		if err := WritePrefixList(&out, ps.Sorted(), "round trip"); err != nil {
			t.Fatal(err)
		}
		back, err := ParsePrefixList(strings.NewReader(out.String()))
		if err != nil {
			t.Fatalf("rendered list does not reparse: %v\n%s", err, out.String())
		}
		if !reflect.DeepEqual(back.Sorted(), ps.Sorted()) {
			t.Fatalf("round trip changed the set:\nparsed   %v\nreparsed %v", ps.Sorted(), back.Sorted())
		}
	})
}
