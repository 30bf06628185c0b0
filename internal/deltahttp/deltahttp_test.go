package deltahttp

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestBasePathRoundTrip(t *testing.T) {
	classes := []string{
		"www.foo.com/laptops#1",
		"simple",
		"with spaces and ü",
		"slashes/every/where#9",
		"query?&=%",
	}
	for _, id := range classes {
		for _, v := range []int{1, 7, 12345} {
			p := BasePath(id, v)
			if !strings.HasPrefix(p, BasePathPrefix) {
				t.Fatalf("BasePath(%q) = %q lacks prefix", id, p)
			}
			gotID, gotV, err := ParseBasePath(p)
			if err != nil {
				t.Fatalf("ParseBasePath(%q): %v", p, err)
			}
			if gotID != id || gotV != v {
				t.Errorf("round trip = (%q,%d), want (%q,%d)", gotID, gotV, id, v)
			}
		}
	}
}

func TestParseBasePathErrors(t *testing.T) {
	bad := []string{
		"/other/path",
		BasePathPrefix,             // no version
		BasePathPrefix + "id",      // no slash/version
		BasePathPrefix + "id/x",    // non-numeric version
		BasePathPrefix + "id/0",    // version must be positive
		BasePathPrefix + "id/-3",   // negative
		BasePathPrefix + "%zz/1",   // bad escape
		BasePathPrefix + "id/1/2x", // trailing junk in version
	}
	for _, p := range bad {
		if _, _, err := ParseBasePath(p); err == nil {
			t.Errorf("ParseBasePath(%q): expected error", p)
		}
	}
}

func TestQuickBasePathRoundTrip(t *testing.T) {
	f := func(id string, v uint16) bool {
		version := int(v)%100000 + 1
		got, gv, err := ParseBasePath(BasePath(id, version))
		return err == nil && got == id && gv == version
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFormatParseHave(t *testing.T) {
	held := []Held{
		{ClassID: "www.foo.com/laptops#1", Version: 3},
		{ClassID: "plain", Version: 1},
		{ClassID: "with, comma:and colon", Version: 12},
		{ClassID: "", Version: 5},    // dropped: empty class
		{ClassID: "neg", Version: 0}, // dropped: no version
	}
	v := FormatHave(held)
	got := ParseHave(v)
	if len(got) != 3 {
		t.Fatalf("round trip kept %d entries, want 3: %q -> %+v", len(got), v, got)
	}
	for i, want := range held[:3] {
		if got[i] != want {
			t.Errorf("entry %d = %+v, want %+v", i, got[i], want)
		}
	}
}

func TestParseHaveMalformed(t *testing.T) {
	// Garbage degrades to fewer entries, never errors.
	cases := map[string]int{
		"":                     0,
		"justtext":             0,
		":3":                   0,
		"cls:":                 0,
		"cls:abc":              0,
		"cls:-2":               0,
		"cls:2,broken,other:5": 2,
		"%zz:3":                0, // bad escape
		"  spaced%20class:7  ": 1,
	}
	for in, want := range cases {
		if got := ParseHave(in); len(got) != want {
			t.Errorf("ParseHave(%q) = %+v, want %d entries", in, got, want)
		}
	}
}

func TestAcceptsVdelta(t *testing.T) {
	cases := map[string]bool{
		"":                     true, // absent means vdelta
		"vdelta":               true,
		"vdelta+gzip":          true,
		"vdelta-chain":         true,
		" vcdiff ,vdelta+gzip": true,
		"vcdiff":               false,
		"vcdiff+gzip":          false,
		"notvdelta":            false, // exact token required
		",":                    false,
	}
	for in, want := range cases {
		if got := AcceptsVdelta(in); got != want {
			t.Errorf("AcceptsVdelta(%q) = %v, want %v", in, got, want)
		}
	}
}
