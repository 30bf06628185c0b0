package vdelta

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzDecode hardens the decoder against arbitrary delta bytes: it must
// return an error or a value, never panic or over-read.
func FuzzDecode(f *testing.F) {
	base := []byte("a base file the fuzzer applies deltas against, with content")
	good, err := Encode(base, []byte("a base file the fuzzer applies deltas against, extended"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add(append([]byte("VD02"), good[4:]...)) // an older build's magic on an otherwise good delta
	f.Add(good[:len(good)/2])                  // truncated mid-section
	for _, s := range sectionSeeds() {
		if d, err := Encode(s[0], s[1]); err == nil {
			f.Add(d)
		}
	}

	// Hand-built wire-format seeds (no checksum flag) targeting decoder edge
	// cases the encoder never emits.
	n := len(base)
	// COPY whose length varint never terminates (continuation bit set at
	// end of input).
	f.Add([]byte{magic0, magic1, magic2, magic3, 0, byte(n), 8, 0, 2, 1, opCopy, 0x80, 0})
	// ADD whose length varint is all continuation bytes.
	f.Add([]byte{magic0, magic1, magic2, magic3, 0, byte(n), 8, 0, 4, 0, opAdd, 0xFF, 0xFF, 0xFF})
	// Overlapping target self-copy: ADD one byte, then COPY 8 bytes from a
	// target prefix holding only that byte — run-length behaviour that must
	// reconstruct byte-by-byte, never over-read.
	f.Add(handDelta(plain(n, 9), add("x"), copyOp(n, 8)))
	// Target self-copy starting at a not-yet-written offset: must error.
	f.Add(handDelta(plain(n, 9), add("x"), copyOp(n+5, 4)))

	f.Fuzz(func(t *testing.T, delta []byte) {
		_, _ = Decode(base, delta)
		_, _, _, _ = Ops(delta)
		if s := Sections(delta); !bytes.Equal(bytes.Join(s[:], nil), delta) {
			t.Fatal("sections do not concatenate to the delta")
		}
	})
}

// sectionSeeds are (base, target) pairs whose deltas leave a section of the
// layout empty or nearly so.
func sectionSeeds() [][2][]byte {
	text := []byte("a base-file whose text the target copies whole")
	return [][2][]byte{
		{text, text}, // one COPY: empty data section
		{[]byte("unrelated"), []byte("fresh literal text only")}, // no COPY: empty address section
		{text, []byte("a b")},                              // a target shorter than a chunk
		{text, append([]byte("new lead, "), text[:20]...)}, // ADD then COPY
	}
}

// FuzzRoundTrip checks the fundamental codec property on arbitrary inputs.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte("base"), []byte("target"))
	f.Add([]byte{}, []byte("only target"))
	f.Add([]byte("only base"), []byte{})
	f.Add(bytes.Repeat([]byte("ab"), 300), bytes.Repeat([]byte("ab"), 301))
	// Maximal self-overlap: a long single-byte run encodes as one ADD plus
	// an overlapping target self-copy.
	f.Add([]byte("x"), bytes.Repeat([]byte("x"), 500))
	for _, s := range sectionSeeds() {
		f.Add(s[0], s[1])
	}
	c := NewCoder()
	f.Fuzz(func(t *testing.T, base, target []byte) {
		delta, err := Encode(base, target)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		got, err := Decode(base, delta)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !bytes.Equal(got, target) {
			t.Fatalf("round trip mismatch: %d vs %d bytes", len(got), len(target))
		}
		// Differential: the flat chain-array index must match the retained
		// map-based reference byte-for-byte on everything the fuzzer finds.
		if ref := refEncode(c.cfg, base, target); !bytes.Equal(delta, ref) {
			t.Fatalf("flat-index delta differs from map-based reference (%d vs %d bytes)",
				len(delta), len(ref))
		}
	})
}

// FuzzEstimateMatchesReference holds the estimator's kernels (two-load
// hash, word-wise match extension, Bloom pre-filter, reusable index) to the
// retained index-per-call, byte-loop reference on whatever the fuzzer finds,
// at the default width and at one the FNV path serves.
func FuzzEstimateMatchesReference(f *testing.F) {
	for _, seed := range fuzzCorpusSeeds() {
		f.Add(seed[0], seed[1])
	}
	f.Add(bytes.Repeat([]byte("0123456789abcdef"), 40), bytes.Repeat([]byte("0123456789abcdeX"), 40))
	ests := []*Estimator{NewEstimator(), NewEstimator(WithChunkSize(5), WithMaxChain(2))}
	f.Fuzz(func(t *testing.T, base, target []byte) {
		for i, e := range ests {
			checkEstimate(t, e, base, target, fmt.Sprintf("estimator %d", i))
		}
	})
}
