package vdelta

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"sync"
)

// CommonChunks partitions base into aligned chunks of chunkSize bytes (the
// paper partitions files into four-byte chunks) and reports, for each chunk,
// whether its exact bytes appear anywhere in target. A trailing partial
// chunk, if any, is included and matched by its actual (shorter) length.
//
// This is the primitive the anonymization process of Section V is built on:
// during delta-encoding between the base-file and another user's document,
// a base chunk is "common" exactly when it occurs in that document.
// CommonChunksRun is usually preferable: bare chunk-width occurrences admit
// too many chance matches on real content.
func CommonChunks(base, target []byte, chunkSize int) []bool {
	if chunkSize < 1 {
		chunkSize = DefaultChunkSize
	}
	numChunks := (len(base) + chunkSize - 1) / chunkSize
	common := make([]bool, numChunks)
	if len(base) == 0 || len(target) == 0 {
		return common
	}

	w := chunkSize
	if w > len(target) {
		w = len(target)
	}

	// Index every target window of width w, verifying on lookup to rule out
	// hash collisions.
	idx := newChunkIndex(positionCount(len(target), w, 1), 64)
	for i := 0; i+w <= len(target); i++ {
		idx.add(hashChunk(target, i, w), int32(i))
	}

	contains := func(chunk []byte) bool {
		if len(chunk) < w {
			// Trailing partial chunk shorter than the window: brute force.
			return bytesContains(target, chunk)
		}
		h := hashChunk(chunk, 0, w)
		pos := idx.head[h&idx.mask]
		n := 0
		for ; pos >= 0 && n < idx.maxChain; n++ {
			if bytesEqualAt(target, int(pos), chunk[:w]) {
				if len(chunk) == w {
					return true
				}
				// Full chunk is wider than the index window; verify the rest.
				if bytesEqualAt(target, int(pos), chunk) {
					return true
				}
			}
			pos = idx.prev[pos]
		}
		// The bounded walk may have stopped before the matching position;
		// fall back to a direct scan only when candidates remained.
		if pos >= 0 {
			return bytesContains(target, chunk)
		}
		return false
	}

	for ci := 0; ci < numChunks; ci++ {
		lo := ci * chunkSize
		hi := lo + chunkSize
		if hi > len(base) {
			hi = len(base)
		}
		common[ci] = contains(base[lo:hi])
	}
	return common
}

func bytesEqualAt(b []byte, pos int, chunk []byte) bool {
	return pos+len(chunk) <= len(b) && bytes.Equal(b[pos:pos+len(chunk)], chunk)
}

func bytesContains(haystack, needle []byte) bool {
	return bytes.Contains(haystack, needle)
}

// CommonChunksRun is CommonChunks with a match-run requirement: a base
// chunk counts as common only when it lies inside a common substring of at
// least runLen bytes shared with target. This matches how Vdelta actually
// finds matches — chunk hashes only seed matches, which are then extended
// maximally — and prevents incidental chunk-width collisions ("the ",
// "<div") from marking genuinely private regions as common. runLen values
// below chunkSize behave like CommonChunks.
//
// The scan walks the base; at each position not yet covered by a run it
// looks up the chunk there in a window index over the target, extends each
// of up to 64 candidates maximally in both directions, and marks the
// longest extension covered if it reaches runLen. Per-call scratch (the
// index, the prefilter and the coverage array) is pooled, so the returned
// slice is the only allocation.
func CommonChunksRun(base, target []byte, chunkSize, runLen int) []bool {
	if chunkSize < 1 {
		chunkSize = DefaultChunkSize
	}
	if runLen <= chunkSize {
		return CommonChunks(base, target, chunkSize)
	}
	numChunks := (len(base) + chunkSize - 1) / chunkSize
	common := make([]bool, numChunks)
	if len(base) == 0 || len(target) == 0 || runLen > len(target) {
		return common
	}

	st := chunkRunPool.Get().(*chunkRunState)
	defer chunkRunPool.Put(st)
	w := chunkSize
	idx := &st.idx
	idx.init(positionCount(len(target), w, 1), 0, 64)
	for i := 0; i+w <= len(target); i++ {
		idx.add(hashChunk(target, i, w), int32(i))
	}
	if cap(st.covered) >= len(base) {
		st.covered = st.covered[:len(base)]
		clear(st.covered)
	} else {
		st.covered = make([]bool, len(base))
	}
	covered := st.covered

	// The prefilter (runLen >= 16 only): a run of runLen or more bytes
	// that contains base[i] also contains a 16-byte window starting in
	// [i-15, i], and that window occurs in target. So a position none of
	// whose 16 windows hashes into the target's window set cannot lie in
	// a qualifying run, and skipping it changes no output: its chain walk
	// could only have found shorter extensions, which mark nothing.
	// Windows are hashed lazily, once each, and only where an uncovered
	// position needs them.
	filtered := runLen >= 16
	lastWin := len(base) - 16 // last base window start
	hashed, lastHit := 0, -16 // next window to test; last window that hit
	if filtered {
		st.set.build(target)
	}

	for i := 0; i+w <= len(base); i++ {
		if covered[i] {
			continue
		}
		if filtered {
			for hashed = max(hashed, i-15); hashed <= min(i, lastWin); hashed++ {
				if st.set.has(hash16(base[hashed:])) {
					lastHit = hashed
				}
			}
			if lastHit < i-15 {
				continue
			}
		}
		seed := base[i : i+w]
		h := hashChunk(base, i, w)
		bestLen, bestStart := 0, 0
		for pos, k := idx.head[h&idx.mask], 0; pos >= 0 && k < idx.maxChain; pos, k = idx.prev[pos], k+1 {
			p := int(pos)
			if !seedEqual(target[p:p+w], seed) {
				continue
			}
			n := w + matchLen(base[i+w:], target[p+w:])
			back := suffixLen(base[:i], target[:p])
			if n+back > bestLen {
				bestLen, bestStart = n+back, i-back
			}
		}
		if bestLen >= runLen {
			for k := bestStart; k < bestStart+bestLen; k++ {
				covered[k] = true
			}
		}
	}

	for ci := range common {
		lo := ci * chunkSize
		hi := min(lo+chunkSize, len(base))
		all := true
		for k := lo; k < hi; k++ {
			if !covered[k] {
				all = false
				break
			}
		}
		common[ci] = all
	}
	return common
}

// chunkRunState is CommonChunksRun's pooled per-call scratch.
type chunkRunState struct {
	idx     chunkIndex
	set     windowSet
	covered []bool
}

var chunkRunPool = sync.Pool{New: func() any { return new(chunkRunState) }}

// windowSet is a one-hash bitset over the hash16 values of every 16-byte
// window of a buffer: has never misses a member and admits a non-member
// with probability about the fraction of bits set.
type windowSet struct {
	bits  []uint64
	shift uint
}

// build indexes every 16-byte window of b (len(b) >= 16) at 32 bits per
// window, rounded up to a power of two.
func (s *windowSet) build(b []byte) {
	windows := len(b) - 15
	nbits := 1 << 12
	for nbits < 32*windows && nbits < 1<<26 {
		nbits <<= 1
	}
	words := nbits / 64
	if cap(s.bits) >= words {
		s.bits = s.bits[:words]
		clear(s.bits)
	} else {
		s.bits = make([]uint64, words)
	}
	s.shift = uint(32 - bits.TrailingZeros(uint(nbits)))
	for j := 0; j < windows; j++ {
		bit := hash16(b[j:]) >> s.shift
		s.bits[bit>>6] |= 1 << (bit & 63)
	}
}

func (s *windowSet) has(h uint32) bool {
	bit := h >> s.shift
	return s.bits[bit>>6]&(1<<(bit&63)) != 0
}

// seedEqual reports whether two equal-length chunks match: one 32-bit
// compare at the default four-byte width.
func seedEqual(a, b []byte) bool {
	if len(a) == 4 {
		return binary.LittleEndian.Uint32(a) == binary.LittleEndian.Uint32(b)
	}
	return bytes.Equal(a, b)
}

// suffixLen returns the length of the longest common suffix of a and b,
// comparing eight bytes at a time: matchLen run backwards.
func suffixLen(a, b []byte) int {
	if len(a) > len(b) {
		a = a[len(a)-len(b):]
	}
	b = b[len(b)-len(a):]
	n := 0
	for ; n+8 <= len(a); n += 8 {
		x := binary.LittleEndian.Uint64(a[len(a)-n-8:]) ^ binary.LittleEndian.Uint64(b[len(b)-n-8:])
		if x != 0 {
			return n + bits.LeadingZeros64(x)>>3
		}
	}
	for n < len(a) && a[len(a)-n-1] == b[len(b)-n-1] {
		n++
	}
	return n
}
