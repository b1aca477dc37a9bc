package cellcache

import (
	"testing"
	"time"
)

func TestParseSpec(t *testing.T) {
	cases := []struct {
		in   string
		want Spec
	}{
		{"memory://", Spec{Scheme: "memory"}},
		{"memory://?entries=4096&bytes=256MiB", Spec{Scheme: "memory", Entries: 4096, Bytes: 256 << 20}},
		{"memory://?entries=-1", Spec{Scheme: "memory", Entries: -1}},
		{"pairtree:///var/lib/stashd", Spec{Scheme: "pairtree", Path: "/var/lib/stashd"}},
		{"pairtree://cache", Spec{Scheme: "pairtree", Path: "cache"}},
		{"pairtree://cache/sub?bytes=1GiB", Spec{Scheme: "pairtree", Path: "cache/sub", Bytes: 1 << 30}},
		{"pairtree:///data?compress=gzip&ttl=24h", Spec{Scheme: "pairtree", Path: "/data", Codec: CodecGzip, TTL: 24 * time.Hour}},
		{"pairtree://d?compress=none&ttl=90s&entries=16&bytes=4096", Spec{Scheme: "pairtree", Path: "d", Entries: 16, Bytes: 4096, TTL: 90 * time.Second}},
	}
	for _, tc := range cases {
		got, err := ParseSpec(tc.in)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestParseSpecRejects(t *testing.T) {
	for _, in := range []string{
		"",                          // no scheme
		"redis://host",              // unknown engine
		"log:///d",                  // removed engine
		"pairtree://",               // persistent engine without a path
		"memory:///some/path",       // memory takes no path
		"memory://?entires=4",       // typoed parameter
		"memory://?entries=x",       // bad int
		"memory://?bytes=10XB",      // bad size suffix
		"pairtree://d?compress=lz4", // unknown codec
		"pairtree://d?ttl=soon",     // bad duration
		"pairtree://d?ttl=-5m",      // negative ttl
	} {
		if sp, err := ParseSpec(in); err == nil {
			t.Errorf("ParseSpec(%q) accepted: %+v", in, sp)
		}
	}
}

func TestSpecRoundTrip(t *testing.T) {
	for _, in := range []string{
		"memory://",
		"pairtree://cache?entries=16",
		"pairtree:///data?bytes=1048576&compress=gzip&ttl=24h0m0s",
	} {
		sp, err := ParseSpec(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		sp2, err := ParseSpec(sp.String())
		if err != nil {
			t.Fatalf("respec %q -> %q: %v", in, sp.String(), err)
		}
		if sp != sp2 {
			t.Errorf("spec round trip drifted: %+v vs %+v", sp, sp2)
		}
	}
}

func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
	}{
		{"0", 0}, {"1024", 1024}, {"64KiB", 64 << 10}, {"256MiB", 256 << 20},
		{"2GiB", 2 << 30}, {"16MB", 16 << 20},
	} {
		got, err := ParseSize(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{"", "-1", "10TiB10", "MiB", "1.5MiB"} {
		if n, err := ParseSize(in); err == nil {
			t.Errorf("ParseSize(%q) accepted: %d", in, n)
		}
	}
}
