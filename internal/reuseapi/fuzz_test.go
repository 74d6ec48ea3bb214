package reuseapi

import (
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
)

// zeroQualities are RFC 9110's spellings of a zero qvalue ("0" with up to
// three zero decimals, either case of the parameter name).
var zeroQualities = []string{"q=0", "q=0.", "q=0.0", "q=0.00", "q=0.000", "Q=0", "Q=0.000", " q=0.0 "}

// zeroQuality is refusesQuality's specification: a trimmed "q=0", optionally
// followed by a dot and any run of zeros.
var zeroQuality = regexp.MustCompile(`^[qQ]=0(\.0*)?$`)

// FuzzAcceptsGzip drives the Accept-Encoding parser with arbitrary header
// values. It must never panic; refusesQuality must agree with its
// specification on every input; a leading zero-weight gzip or "*" entry
// refuses gzip and a leading bare gzip accepts it, whatever follows.
func FuzzAcceptsGzip(f *testing.F) {
	for _, tc := range acceptsGzipCases {
		f.Add(tc.header)
	}
	f.Fuzz(func(t *testing.T, header string) {
		accepts := func(h string) bool {
			r := httptest.NewRequest("GET", "/v1/list", nil)
			r.Header.Set("Accept-Encoding", h)
			return acceptsGzip(r)
		}
		accepts(header)
		if got, want := refusesQuality(header), zeroQuality.MatchString(strings.TrimSpace(header)); got != want {
			t.Fatalf("refusesQuality(%q) = %v, want %v", header, got, want)
		}
		for _, z := range zeroQualities {
			for _, enc := range []string{"gzip", "*"} {
				if h := enc + ";" + z + "," + header; accepts(h) {
					t.Fatalf("acceptsGzip(%q) = true; a zero quality must refuse", h)
				}
			}
		}
		if h := "gzip," + header; !accepts(h) {
			t.Fatalf("acceptsGzip(%q) = false; a leading bare gzip must accept", h)
		}
	})
}

// FuzzETagMatches drives the If-None-Match parser with arbitrary header
// values and entity tags. It must never panic, and a list containing "*",
// our exact tag, or its weak form always matches. Tags are built as quoted
// etagc strings without commas — the shape the server mints (a quoted hex
// digest), since a list entry cannot contain the separator.
func FuzzETagMatches(f *testing.F) {
	for _, tc := range acceptsGzipCases {
		f.Add(tc.header, "3bf6ef20e075b8e9c38aa8f68ad31045")
	}
	f.Add(`"abc", W/"def"`, "def")
	f.Add("*", "")
	f.Fuzz(func(t *testing.T, header, tag string) {
		etag := `"` + strings.Map(func(r rune) rune {
			if r == '!' || (r >= 0x23 && r <= 0x7e && r != ',') {
				return r
			}
			return -1
		}, tag) + `"`
		etagMatches(header, etag)
		for _, h := range []string{
			"*", header + ",*", "*," + header,
			etag, header + "," + etag, etag + "," + header, header + ", W/" + etag,
		} {
			if !etagMatches(h, etag) {
				t.Fatalf("etagMatches(%q, %q) = false", h, etag)
			}
		}
	})
}
