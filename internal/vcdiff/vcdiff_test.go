package vcdiff

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, source, target []byte) []byte {
	t.Helper()
	delta, err := Encode(source, target)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(source, delta)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(got, target) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(target))
	}
	return delta
}

func TestRoundTripBasic(t *testing.T) {
	tests := []struct {
		name           string
		source, target string
	}{
		{"identical", "the quick brown fox jumps over the lazy dog", "the quick brown fox jumps over the lazy dog"},
		{"empty both", "", ""},
		{"empty source", "", "fresh content with no source at all"},
		{"empty target", "some source content", ""},
		{"append", "shared prefix content", "shared prefix content plus a suffix"},
		{"edit", "aaaa bbbb cccc dddd", "aaaa XXXX cccc dddd"},
		{"rewrite", "abcdefghijklmnop", "zyxwvutsrqponmlkjihgfedcba"},
		{"repetitive", "seed", strings.Repeat("na", 300) + " batman"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			roundTrip(t, []byte(tt.source), []byte(tt.target))
		})
	}
}

func TestHeaderShape(t *testing.T) {
	delta, err := Encode([]byte("source"), []byte("target"))
	if err != nil {
		t.Fatal(err)
	}
	// RFC 3284: 0xD6 0xC3 0xC4 ("VCD" with high bits), version 0, and our
	// header indicator 0.
	want := []byte{0xD6, 0xC3, 0xC4, 0x00, 0x00}
	if !bytes.HasPrefix(delta, want) {
		t.Errorf("header = % x, want prefix % x", delta[:5], want)
	}
	// First window uses a source segment.
	if delta[5]&vcdSource == 0 {
		t.Error("window does not declare VCD_SOURCE")
	}
}

func TestDeltaCompact(t *testing.T) {
	source := bytes.Repeat([]byte("The catalogue entry describes a product in detail. "), 400) // ~20KB
	target := append([]byte{}, source...)
	copy(target[9000:], "EDITED-REGION")
	delta := roundTrip(t, source, target)
	if len(delta) > len(target)/10 {
		t.Errorf("delta %d bytes for a %d-byte near-identical target", len(delta), len(target))
	}
}

func TestVarintBigEndianBase128(t *testing.T) {
	// RFC 3284 section 2 example: 123456789 encodes as 0xBA 0xEF 0x9A 0x15.
	got := appendVarint(nil, 123456789)
	want := []byte{0xBA, 0xEF, 0x9A, 0x15}
	if !bytes.Equal(got, want) {
		t.Errorf("appendVarint(123456789) = % x, want % x", got, want)
	}
	r := &byteReader{data: want}
	v, err := r.readVarint()
	if err != nil || v != 123456789 {
		t.Errorf("readVarint = %d, %v", v, err)
	}
	if varintLen(123456789) != 4 {
		t.Errorf("varintLen = %d, want 4", varintLen(123456789))
	}
}

func TestQuickVarintRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		enc := appendVarint(nil, int(v))
		r := &byteReader{data: enc}
		got, err := r.readVarint()
		return err == nil && got == int(v) && len(enc) == varintLen(int(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestCodeTableStructure(t *testing.T) {
	// Spot checks against RFC 3284 section 5.6.
	if e := defaultCodeTable[0]; e.type1 != instRun || e.size1 != 0 || e.type2 != instNoop {
		t.Errorf("entry 0 = %+v, want RUN 0", e)
	}
	if e := defaultCodeTable[1]; e.type1 != instAdd || e.size1 != 0 {
		t.Errorf("entry 1 = %+v, want ADD size 0", e)
	}
	if e := defaultCodeTable[18]; e.type1 != instAdd || e.size1 != 17 {
		t.Errorf("entry 18 = %+v, want ADD size 17", e)
	}
	if e := defaultCodeTable[19]; e.type1 != instCopy || e.size1 != 0 || e.mode1 != 0 {
		t.Errorf("entry 19 = %+v, want COPY size 0 mode 0", e)
	}
	if e := defaultCodeTable[34]; e.type1 != instCopy || e.size1 != 18 || e.mode1 != 0 {
		t.Errorf("entry 34 = %+v, want COPY size 18 mode 0", e)
	}
	if e := defaultCodeTable[162]; e.type1 != instCopy || e.size1 != 18 || e.mode1 != 8 {
		t.Errorf("entry 162 = %+v, want COPY size 18 mode 8", e)
	}
	if e := defaultCodeTable[163]; e.type1 != instAdd || e.size1 != 1 || e.type2 != instCopy || e.size2 != 4 || e.mode2 != 0 {
		t.Errorf("entry 163 = %+v, want ADD1+COPY4 mode0", e)
	}
	if e := defaultCodeTable[235]; e.type1 != instAdd || e.size1 != 1 || e.type2 != instCopy || e.size2 != 4 || e.mode2 != 6 {
		t.Errorf("entry 235 = %+v, want ADD1+COPY4 mode6", e)
	}
	if e := defaultCodeTable[247]; e.type1 != instCopy || e.size1 != 4 || e.mode1 != 0 || e.type2 != instAdd || e.size2 != 1 {
		t.Errorf("entry 247 = %+v, want COPY4 mode0 + ADD1", e)
	}
	if e := defaultCodeTable[255]; e.type1 != instCopy || e.mode1 != 8 || e.type2 != instAdd {
		t.Errorf("entry 255 = %+v, want COPY4 mode8 + ADD1", e)
	}
}

func TestDecodeErrors(t *testing.T) {
	source := []byte("source material for error testing")
	delta, err := Encode(source, []byte("source material for error testing, changed"))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte{}, delta...)
		bad[0] = 'X'
		if _, err := Decode(source, bad); !errors.Is(err, errCorrupt) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("truncations", func(t *testing.T) {
		for cut := 0; cut < len(delta); cut += 2 {
			if _, err := Decode(source, delta[:cut]); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("secondary compression unsupported", func(t *testing.T) {
		bad := append([]byte{}, delta...)
		bad[4] = 0x01
		if _, err := Decode(source, bad); !errors.Is(err, errUnsupported) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("shorter source fails", func(t *testing.T) {
		if _, err := Decode(source[:4], delta); !errors.Is(err, errCorrupt) {
			t.Errorf("got %v", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := Decode(source, nil); err == nil {
			t.Error("empty delta accepted")
		}
	})
}

func TestDecodeHandCraftedRun(t *testing.T) {
	// Build a window by hand that uses the RUN instruction (entry 0),
	// which our encoder never emits.
	var body []byte
	body = appendVarint(body, 5) // target length
	body = append(body, 0)       // delta indicator
	data := []byte{'z'}          // RUN byte
	insts := []byte{0}           // entry 0 = RUN, explicit size
	insts = appendVarint(insts, 5)
	body = appendVarint(body, len(data))
	body = appendVarint(body, len(insts))
	body = appendVarint(body, 0) // no addresses
	body = append(body, data...)
	body = append(body, insts...)

	var delta []byte
	delta = append(delta, headerMagic...)
	delta = append(delta, 0) // header indicator
	delta = append(delta, 0) // win indicator: no source
	delta = appendVarint(delta, len(body))
	delta = append(delta, body...)

	got, err := Decode(nil, delta)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "zzzzz" {
		t.Errorf("RUN produced %q", got)
	}
}

func TestDecodeMultiWindow(t *testing.T) {
	// Two concatenated windows: the target is the concatenation.
	d1, err := Encode([]byte("alpha"), []byte("alpha-one"))
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Encode([]byte("alpha"), []byte("-two"))
	if err != nil {
		t.Fatal(err)
	}
	// Strip the second delta's file header and append its window.
	combined := append(append([]byte{}, d1...), d2[5:]...)
	got, err := Decode([]byte("alpha"), combined)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "alpha-one-two" {
		t.Errorf("multi-window decode = %q", got)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(source, target []byte) bool {
		delta, err := Encode(source, target)
		if err != nil {
			return false
		}
		got, err := Decode(source, delta)
		return err == nil && bytes.Equal(got, target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestQuickGarbageNeverPanics(t *testing.T) {
	source := []byte("a source for garbage decoding")
	f := func(garbage []byte) bool {
		_, _ = Decode(source, garbage)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestRealisticDocuments(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 3))
	words := []string{"<html>", "<div>", "content", "price", "stock", "</div>", "</html>", " "}
	mkdoc := func(n int) []byte {
		var b bytes.Buffer
		for b.Len() < n {
			b.WriteString(words[rng.IntN(len(words))])
		}
		return b.Bytes()
	}
	for i := 0; i < 40; i++ {
		source := mkdoc(2000 + rng.IntN(4000))
		target := append([]byte{}, source...)
		for e := 0; e < 1+rng.IntN(5); e++ {
			pos := rng.IntN(len(target))
			end := pos + rng.IntN(100)
			if end > len(target) {
				end = len(target)
			}
			target = append(target[:pos], append(mkdoc(rng.IntN(80)), target[end:]...)...)
		}
		roundTrip(t, source, target)
	}
}

func TestAddressCacheModes(t *testing.T) {
	// Repeated copies from the same address exercise the same-cache
	// single-byte encoding; nearby copies exercise the near cache.
	source := bytes.Repeat([]byte("ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"), 64)
	var target []byte
	for i := 0; i < 20; i++ {
		target = append(target, source[100:140]...) // same address repeatedly
		target = append(target, byte('x'), byte('y'), byte('z'))
		target = append(target, source[104+i:144+i]...) // near addresses
	}
	delta := roundTrip(t, source, target)
	// With cache-assisted addressing, the delta should be far smaller
	// than the target.
	if len(delta) > len(target)/2 {
		t.Errorf("delta %d bytes for %d-byte cache-friendly target", len(delta), len(target))
	}
}
