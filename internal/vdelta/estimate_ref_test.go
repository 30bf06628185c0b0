package vdelta

// This file retains the estimator as it was before the word-wise kernels,
// the Bloom pre-filter and the reusable index: a map-based chunk index built
// on every call, byte-at-a-time match extension, no filter. Only the chunk
// hash is shared with production (Estimator.hash), so the differential
// tests pin every other part of Estimate / EstimateIndexed to it.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"
)

func refEstimate(e *Estimator, base, target []byte) int {
	w := e.chunkSize
	chunks := positionCount(len(base), w, w)
	idx := newRefIndex(chunks, e.maxChain)
	for ord := int32(chunks) - 1; ord >= 0; ord-- {
		idx.add(e.hash(base, int(ord)*w), ord)
	}

	size := 5 + 4 + putUvarintLen(len(base)) + putUvarintLen(len(target)) + 1
	lit, pos := 0, 0
	flushLit := func() {
		if lit > 0 {
			size += 1 + putUvarintLen(lit) + lit
			lit = 0
		}
	}
	for pos+w <= len(target) {
		bestStart, bestLen := -1, 0
		idx.scan(e.hash(target, pos), func(ord int32) {
			start := int(ord) * w
			n := 0
			for start+n < len(base) && pos+n < len(target) && base[start+n] == target[pos+n] {
				n++
			}
			if n > bestLen || (n == bestLen && n > 0 && start < bestStart) {
				bestStart, bestLen = start, n
			}
		})
		if bestLen >= w {
			flushLit()
			size += 1 + putUvarintLen(bestStart) + putUvarintLen(bestLen)
			pos += bestLen
			continue
		}
		lit++
		pos++
	}
	lit += len(target) - pos
	flushLit()
	return size
}

// putUvarintLen is the retained uvarintLen: format into a buffer and count.
func putUvarintLen(v int) int {
	var buf [binary.MaxVarintLen64]byte
	return binary.PutUvarint(buf[:], uint64(v))
}

// estimatorConfigs are the widths and chain bounds the differential tests
// sweep: the default (the two-load hash), widths on the FNV path either
// side of it, and a chain bound of one.
func estimatorConfigs() []struct {
	name string
	opts []Option
} {
	return []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"chunk4", []Option{WithChunkSize(4)}},
		{"chunk8", []Option{WithChunkSize(8)}},
		{"chunk64", []Option{WithChunkSize(64)}},
		{"chain1", []Option{WithMaxChain(1)}},
	}
}

func checkEstimate(t *testing.T, e *Estimator, base, target []byte, label string) {
	t.Helper()
	want := refEstimate(e, base, target)
	if got := e.Estimate(base, target); got != want {
		t.Fatalf("%s: Estimate = %d, reference %d", label, got, want)
	}
	ix := e.Index(base)
	defer e.Release(ix)
	// Twice: an index is read-only and serves any number of estimates.
	for i := 0; i < 2; i++ {
		if got := e.EstimateIndexed(ix, base, target); got != want {
			t.Fatalf("%s: EstimateIndexed (use %d) = %d, reference %d", label, i, got, want)
		}
	}
}

func TestEstimateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 9))
	adversarial := [][2][]byte{
		{bytes.Repeat([]byte("a"), 2000), bytes.Repeat([]byte("a"), 1999)},
		{bytes.Repeat([]byte("ab"), 1000), bytes.Repeat([]byte("ba"), 1000)},
		{bytes.Repeat([]byte("0123456789abcdef"), 200), bytes.Repeat([]byte("0123456789abcdeX"), 200)},
		{[]byte("0123456789abcde"), []byte("0123456789abcde")},      // one below the default width
		{[]byte("0123456789abcdef"), []byte("0123456789abcdef")},    // exactly the width
		{[]byte("0123456789abcdefg"), []byte("x0123456789abcdefg")}, // one past, unaligned
		{nil, bytes.Repeat([]byte{0}, 1000)},
		{bytes.Repeat([]byte{0}, 1000), nil},
		{nil, nil},
	}
	for _, cfg := range estimatorConfigs() {
		e := NewEstimator(cfg.opts...)
		for i, seed := range fuzzCorpusSeeds() {
			checkEstimate(t, e, seed[0], seed[1], fmt.Sprintf("%s/seed%d", cfg.name, i))
		}
		for i, tc := range adversarial {
			checkEstimate(t, e, tc[0], tc[1], fmt.Sprintf("%s/adversarial%d", cfg.name, i))
		}
		for i := 0; i < 30; i++ {
			base, target := randDoc(rng, 100+rng.IntN(6000))
			checkEstimate(t, e, base, target, fmt.Sprintf("%s/random%d", cfg.name, i))
			// Unrelated pair: every position is a literal, the filter's case.
			other, _ := randDoc(rng, 100+rng.IntN(3000))
			checkEstimate(t, e, other, target, fmt.Sprintf("%s/unrelated%d", cfg.name, i))
		}
	}
}

// TestEstimatorIndexReuse: the pool hands a released index to the next
// caller; nothing of the previous base may leak into its estimates.
func TestEstimatorIndexReuse(t *testing.T) {
	rng := rand.New(rand.NewPCG(62, 1))
	e := NewEstimator()
	big, bigT := randDoc(rng, 40000)
	small, smallT := randDoc(rng, 300)
	for i := 0; i < 3; i++ {
		checkEstimate(t, e, big, bigT, "big")
		checkEstimate(t, e, small, smallT, "small")
	}
}

func TestMatchLen(t *testing.T) {
	a := []byte("0123456789abcdefghijklmnopqrstuv")
	// Every mismatch offset across two whole words and into a third.
	for off := 0; off <= 17; off++ {
		b := append([]byte{}, a...)
		b[off] ^= 0x80
		if got := matchLen(a, b); got != off {
			t.Errorf("mismatch at %d: matchLen = %d", off, got)
		}
		if got := matchLen(b, a); got != off {
			t.Errorf("mismatch at %d (swapped): matchLen = %d", off, got)
		}
	}
	// Unequal lengths: the shorter side bounds the answer, at every length
	// around the word boundaries, equal prefixes or not.
	for n := 0; n <= 17; n++ {
		if got := matchLen(a[:n], a); got != n {
			t.Errorf("prefix of %d bytes: matchLen = %d", n, got)
		}
		if got := matchLen(a, a[:n]); got != n {
			t.Errorf("prefix of %d bytes (swapped): matchLen = %d", n, got)
		}
		if n > 0 {
			b := append([]byte{}, a[:n]...)
			b[n-1] ^= 1
			if got := matchLen(a, b); got != n-1 {
				t.Errorf("last byte of %d differs: matchLen = %d", n, got)
			}
		}
	}
	if got := matchLen(nil, nil); got != 0 {
		t.Errorf("matchLen(nil, nil) = %d", got)
	}
	// Overlapping views of one buffer, as the encoder's target self-copies
	// compare them.
	run := bytes.Repeat([]byte("x"), 100)
	if got := matchLen(run[:99], run[1:]); got != 99 {
		t.Errorf("overlapping run: matchLen = %d, want 99", got)
	}
}

func TestUvarintLen(t *testing.T) {
	for _, v := range []int{0, 1, 127, 128, 16383, 16384, 1<<21 - 1, 1 << 21, 1<<31 - 1} {
		if got, want := uvarintLen(uint64(v)), putUvarintLen(v); got != want {
			t.Errorf("uvarintLen(%d) = %d, want %d", v, got, want)
		}
	}
	if got := uvarintLen(1<<64 - 1); got != 10 {
		t.Errorf("uvarintLen(max) = %d, want 10", got)
	}
}
