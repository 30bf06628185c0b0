package vdelta

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"cbde/internal/origin"
)

// personalizedPages renders one catalog page of a personalized synthetic
// site: the anonymous base, user u's and user v's copies at tick 3, and v's
// copy one tick later (the churning block differs too).
func personalizedPages(t testing.TB) (base, u, v, vNext []byte) {
	t.Helper()
	site := origin.NewSite(origin.Config{
		Host:          "www.hint.com",
		Depts:         []origin.Dept{{Name: "catalog", Items: 2}},
		TemplateBytes: 30000,
		ItemBytes:     4000,
		ChurnBytes:    1500,
		Personalized:  true,
		Seed:          7,
	})
	render := func(user string, tick int) []byte {
		doc, err := site.Render("catalog", 1, user, tick)
		if err != nil {
			t.Fatal(err)
		}
		return doc
	}
	return render("", 0), render("user-u", 3), render("user-v", 3), render("user-v", 4)
}

// hintSeeds is FuzzEncodeHinted's seed corpus as (base, prev, target)
// triples: the codec's round-trip seeds with a related previous target, and
// personalized pages where prev is another user's copy of the same URL.
func hintSeeds(t testing.TB) [][3][]byte {
	seeds := [][3][]byte{
		{[]byte("base"), []byte("target"), []byte("target")},
		{{}, []byte("only target"), []byte("only target, again")},
		{[]byte("only base"), []byte("only base"), {}},
		{bytes.Repeat([]byte("ab"), 300), bytes.Repeat([]byte("ab"), 301), bytes.Repeat([]byte("ab"), 302)},
		{[]byte("x"), bytes.Repeat([]byte("x"), 500), bytes.Repeat([]byte("x"), 499)},
	}
	base, u, v, vNext := personalizedPages(t)
	seeds = append(seeds, [3][]byte{base, u, v}, [3][]byte{base, u, vNext}, [3][]byte{base, vNext, u})
	// prev is itself a delta, so checkHinted's raw-bytes hint hands the
	// fuzzer a well-formed instruction stream to mutate.
	ab := []byte("a base with some text, and some more text to copy from")
	abDelta, err := Encode(ab, []byte("some more text, a base with some text"))
	if err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, [3][]byte{ab, abDelta, []byte("some more text, a base with some text!")})
	// The sectioned layout's corner cases: prev's delta has no literals, or
	// no COPY, or is cut off inside a section; a target below one chunk.
	for _, s := range sectionSeeds() {
		seeds = append(seeds, [3][]byte{s[0], s[1], s[1]}, [3][]byte{s[0], s[1], append(bytes.Clone(s[1]), '!')})
	}
	cut, err := Encode(ab, []byte("and some more text to copy from, a base"))
	if err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, [3][]byte{ab, cut[:len(cut)-3], []byte("and some more text to copy from")})
	// Random documents: prev is an edited base, target is prev with one
	// more edit in the middle.
	rng := rand.New(rand.NewPCG(26, 1))
	for i := 0; i < 3; i++ {
		b, prev := randDoc(rng, 2000+rng.IntN(4000))
		mid := len(prev) / 2
		target := append(append(bytes.Clone(prev[:mid]), "<div>an edit</div>"...), prev[mid:]...)
		seeds = append(seeds, [3][]byte{b, prev, target})
	}
	return seeds
}

// checkHinted holds one hinted encode to the properties every hint must
// keep: the delta decodes to target whatever the hint, a hint that is
// target's own unhinted delta replays into exactly that delta, and a hint
// that cannot verify leaves the unhinted output untouched.
func checkHinted(t *testing.T, c *Coder, base, prev, target []byte) {
	t.Helper()
	ix := c.NewIndex(base)
	unhinted, err := c.EncodeIndexedInto(ix, target, nil)
	if err != nil {
		t.Fatal(err)
	}
	unhinted = bytes.Clone(unhinted)
	prevDelta, err := c.EncodeIndexed(ix, prev)
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := c.Encode(append([]byte("another base: "), base...), target)
	if err != nil {
		t.Fatal(err)
	}
	// A self-copy of the whole target from its own first byte: well formed,
	// but it reads bytes not yet written, so it must not replay.
	forged := handDelta(plain(len(base), len(target)), copyOp(len(base), len(target)))
	hints := map[string][]byte{
		"prev":             prevDelta,
		"truncated":        prevDelta[:len(prevDelta)/2],
		"raw bytes":        prev,
		"foreign":          foreign,
		"unwritten source": forged,
	}
	for name, hint := range hints {
		delta, replayed, err := c.EncodeHintedInto(ix, target, hint, nil)
		if err != nil {
			t.Fatalf("%s hint: %v", name, err)
		}
		if replayed < 0 || replayed > len(target) {
			t.Fatalf("%s hint: replayed %d of %d target bytes", name, replayed, len(target))
		}
		got, err := c.Decode(base, delta)
		if err != nil {
			t.Fatalf("%s hint: decode: %v", name, err)
		}
		if !bytes.Equal(got, target) {
			t.Fatalf("%s hint: round trip mismatch (%d vs %d bytes)", name, len(got), len(target))
		}
		if replayed == 0 && !bytes.Equal(delta, unhinted) {
			t.Fatalf("%s hint: nothing replayed, yet the delta differs from the unhinted one", name)
		}
	}

	self, replayed, err := c.EncodeHintedInto(ix, target, unhinted, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(self, unhinted) {
		t.Fatalf("replaying target's own delta changed it (%d vs %d bytes)", len(self), len(unhinted))
	}
	if replayed != len(target) {
		t.Fatalf("own-delta replay covered %d of %d target bytes", replayed, len(target))
	}
}

// FuzzEncodeHinted checks the hinted encoder on arbitrary (base, previous
// target, target) triples; see checkHinted for the properties.
func FuzzEncodeHinted(f *testing.F) {
	for _, s := range hintSeeds(f) {
		f.Add(s[0], s[1], s[2])
	}
	c := NewCoder()
	f.Fuzz(func(t *testing.T, base, prev, target []byte) {
		checkHinted(t, c, base, prev, target)
	})
}

func TestEncodeHintedProperties(t *testing.T) {
	for _, cfg := range diffConfigs() {
		c := NewCoder(cfg.opts...)
		for i, s := range hintSeeds(t) {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.name, i), func(t *testing.T) {
				checkHinted(t, c, s[0], s[1], s[2])
			})
		}
	}
}

// TestEncodeHintedSizeOnSeedCorpus bounds what the replay may cost in delta
// size: on the seed corpus a hinted delta is at most 5 % larger than the
// unhinted one.
func TestEncodeHintedSizeOnSeedCorpus(t *testing.T) {
	c := NewCoder()
	for i, s := range hintSeeds(t) {
		ix := c.NewIndex(s[0])
		hint, err := c.EncodeIndexed(ix, s[1])
		if err != nil {
			t.Fatal(err)
		}
		unhinted, err := c.EncodeIndexed(ix, s[2])
		if err != nil {
			t.Fatal(err)
		}
		hinted, replayed, err := c.EncodeHintedInto(ix, s[2], hint, nil)
		if err != nil {
			t.Fatal(err)
		}
		if float64(len(hinted)) > 1.05*float64(len(unhinted)) {
			t.Errorf("seed %d: hinted delta %d bytes > 1.05 x unhinted %d (replayed %d of %d)",
				i, len(hinted), len(unhinted), replayed, len(s[2]))
		}
	}
}

// TestEncodeHintedExtendsTrailingCopy pins the hand-over from replay to
// scan: when the target runs on where the hint's target stopped matching,
// the last replayed copy — from the base or from the target itself — grows
// to the length an unhinted encode finds, so the two deltas are identical.
func TestEncodeHintedExtendsTrailingCopy(t *testing.T) {
	text := []byte("a base-file long enough that one copy covers the first hundred and fifty bytes of the target; ")
	text = append(text, text...)
	for _, tc := range []struct {
		name, base, prev, target string
		replayed                 int
	}{
		{"base copy", string(text), string(text[:100]) + "Q", string(text[:150]), 150},
		{"self copy", "zz", strings.Repeat("xyz", 50) + "Q", strings.Repeat("xyz", 60), 180},
		// Nothing to extend: a base copy may not run past the base's end.
		{"base copy to the base's end", string(text), string(text) + "Q", string(text) + string(text[:20]), len(text)},
	} {
		c := NewCoder()
		ix := c.NewIndex([]byte(tc.base))
		hint, err := c.EncodeIndexed(ix, []byte(tc.prev))
		if err != nil {
			t.Fatal(err)
		}
		want, err := c.EncodeIndexed(ix, []byte(tc.target))
		if err != nil {
			t.Fatal(err)
		}
		got, replayed, err := c.EncodeHintedInto(ix, []byte(tc.target), hint, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) || replayed != tc.replayed {
			t.Errorf("%s: hinted delta %x (replayed %d) != unhinted %x", tc.name, got, replayed, want)
		}
	}
}

// TestEncodeHintedReplaysAnotherUsersPage pins the case the hint exists for:
// two users' copies of one personalized page share everything but the
// account block, so most of the target replays, and the delta carries none
// of the hint user's personal tokens.
func TestEncodeHintedReplaysAnotherUsersPage(t *testing.T) {
	base, u, v, vNext := personalizedPages(t)
	c := NewCoder()
	ix := c.NewIndex(base)
	hint, err := c.EncodeIndexed(ix, u)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		target      []byte
		minReplayed float64 // share of the target
	}{
		{"same tick", v, 0.9},
		{"next tick", vNext, 0.5},
	} {
		delta, replayed, err := c.EncodeHintedInto(ix, tc.target, hint, nil)
		if err != nil {
			t.Fatal(err)
		}
		if share := float64(replayed) / float64(len(tc.target)); share < tc.minReplayed {
			t.Errorf("%s: replayed %.2f of the target, want >= %.2f", tc.name, share, tc.minReplayed)
		}
		got, err := c.Decode(base, delta)
		if err != nil || !bytes.Equal(got, tc.target) {
			t.Fatalf("%s: hinted delta does not reconstruct the target (err %v)", tc.name, err)
		}
		if bytes.Contains(delta, []byte("user-u")) {
			t.Errorf("%s: delta for user-v carries user-u's name", tc.name)
		}
	}
}

// TestDecodeTargetSelfCopy holds the block-copy decoder to the byte-serial
// semantics of a target self-copy at every distance that matters — periods
// below, at and above the 8-byte word — for short, period-length and long
// copies, against a byte-at-a-time reference.
func TestDecodeTargetSelfCopy(t *testing.T) {
	base := []byte("base-file")
	prefix := []byte("0123456789abcdefghij")
	for _, dist := range []int{1, 2, 3, 7, 8, 9, 20} {
		for _, length := range []int{1, dist - 1, dist, dist + 1, 2*dist + 3, 1000, 5000} {
			if length < 1 {
				continue
			}
			want := append([]byte(nil), prefix...)
			from := len(prefix) - dist
			for i := 0; i < length; i++ {
				want = append(want, want[from+i])
			}
			delta := handDelta(plain(len(base), len(want)), add(string(prefix)), copyOp(len(base)+from, length))
			got, err := Decode(base, delta)
			if err != nil {
				t.Fatalf("distance %d, length %d: %v", dist, length, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("distance %d, length %d: block copy differs from the byte-serial reference", dist, length)
			}
		}
	}
}

// BenchmarkEncodeHinted prices the replay on a personalized page against
// the unhinted encode of the same target.
func BenchmarkEncodeHinted(b *testing.B) {
	base, u, v, vNext := personalizedPages(b)
	c := NewCoder()
	ix := c.NewIndex(base)
	hint, err := c.EncodeIndexed(ix, u)
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name         string
		target, hint []byte
	}{
		{"unhinted", v, nil},
		{"same-tick", v, hint},
		{"next-tick", vNext, hint},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var dst []byte
			b.SetBytes(int64(len(bc.target)))
			for i := 0; i < b.N; i++ {
				dst, _, _ = c.EncodeHintedInto(ix, bc.target, bc.hint, dst)
			}
			b.ReportMetric(float64(len(dst)), "delta-bytes")
		})
	}
}
