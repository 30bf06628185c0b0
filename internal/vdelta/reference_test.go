package vdelta

// This file retains a map-based reference implementation of the encoder's
// chunk index — the structure the package used before the flat chain-array
// rewrite — and differential tests asserting that the production encoder
// produces byte-identical deltas over randomized inputs and the fuzz corpus
// seeds. The reference mirrors the production semantics exactly: hashes are
// masked into the same power-of-two slot space (so unrelated hashes share
// chains and consume the same lookup budget), insertion order matches, and
// lookups walk at most maxChain candidates newest-first. Only the data
// structure differs: a map of position slices instead of head/prev arrays.

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"
)

// refIndex is the retained map-based chunk index.
type refIndex struct {
	mask     uint32
	maxChain int
	buckets  map[uint32][]int32
}

func newRefIndex(positions, maxChain int) *refIndex {
	return &refIndex{
		mask:     uint32(hashSpaceFor(positions) - 1),
		maxChain: maxChain,
		buckets:  make(map[uint32][]int32),
	}
}

func (r *refIndex) add(h uint32, pos int32) {
	slot := h & r.mask
	r.buckets[slot] = append(r.buckets[slot], pos)
}

// scan visits at most maxChain positions for h, newest-first, calling fn
// for each — the same candidate sequence the chain arrays yield.
func (r *refIndex) scan(h uint32, fn func(pos int32)) {
	chain := r.buckets[h&r.mask]
	for i, n := len(chain)-1, 0; i >= 0 && n < r.maxChain; i, n = i-1, n+1 {
		fn(chain[i])
	}
}

// refEncoder is a copy of deltaEncoder driving refIndex instead of
// chunkIndex. It shares the package's match/better/extend semantics by
// construction; drift between the two encoders is what the differential
// tests exist to catch.
type refEncoder struct {
	cfg       config
	base      []byte
	target    []byte
	baseIdx   *refIndex
	targetIdx *refIndex

	ops      []Op
	litStart int
	pos      int
}

// refEncode is the reference Encode: map-based indexes, same configuration.
func refEncode(cfg config, base, target []byte) []byte {
	w := cfg.chunkSize
	baseIdx := newRefIndex(positionCount(len(base), w, 1), cfg.maxChain)
	for i := len(base) - w; i >= 0; i-- {
		baseIdx.add(hashChunk(base, i, w), int32(i))
	}
	var targetIdx *refIndex
	if cfg.targetMatching {
		targetIdx = newRefIndex(positionCount(len(target), w, 1), cfg.maxChain)
	}
	e := refEncoder{cfg: cfg, base: base, target: target, baseIdx: baseIdx, targetIdx: targetIdx}
	return e.run()
}

func (e *refEncoder) run() []byte {
	base, target := e.base, e.target
	w := e.cfg.chunkSize

	for e.pos+w <= len(target) {
		h := hashChunk(target, e.pos, w)
		var best match
		e.baseIdx.scan(h, func(pos int32) {
			if m := e.extend(int(pos)); better(m, best) {
				best = m
			}
		})
		if e.targetIdx != nil {
			e.targetIdx.scan(h, func(pos int32) {
				if m := e.extend(int(pos)); better(m, best) {
					best = m
				}
			})
		}
		if best.length >= e.cfg.minMatch {
			e.flushLiterals(e.pos - best.back)
			e.ops = append(e.ops, copyOp(best.start, best.length))
			if e.targetIdx != nil {
				to := e.pos - best.back + best.length
				for i := e.pos; i+w <= to && i+w <= len(target); i += w {
					e.targetIdx.add(hashChunk(target, i, w), int32(len(base)+i))
				}
			}
			e.pos += best.length - best.back
			e.litStart = e.pos
			continue
		}
		if e.targetIdx != nil {
			e.targetIdx.add(h, int32(len(base)+e.pos))
		}
		e.pos++
	}
	e.flushLiterals(len(target))
	h := header{baseLen: len(base), targetLen: len(target), hasChecksum: e.cfg.checksum}
	if h.hasChecksum {
		h.checksum = checksumOf(target)
	}
	return handDelta(h, e.ops...)
}

func (e *refEncoder) flushLiterals(upto int) {
	if upto <= e.litStart {
		return
	}
	e.ops = append(e.ops, add(string(e.target[e.litStart:upto])))
	e.litStart = upto
}

func (e *refEncoder) srcByte(i int) byte {
	if i < len(e.base) {
		return e.base[i]
	}
	return e.target[i-len(e.base)]
}

func (e *refEncoder) extend(start int) match {
	base, target := e.base, e.target
	srcLimit := len(base)
	isTargetSrc := start >= len(base)
	if isTargetSrc {
		srcLimit = len(base) + len(target)
	}
	n := 0
	for start+n < srcLimit && e.pos+n < len(target) {
		if isTargetSrc {
			if target[start+n-len(base)] != target[e.pos+n] {
				break
			}
		} else if base[start+n] != target[e.pos+n] {
			break
		}
		n++
	}
	if n < e.cfg.chunkSize {
		return match{}
	}
	back := 0
	for e.pos-back > e.litStart && start-back > 0 {
		if e.srcByte(start-back-1) != target[e.pos-back-1] {
			break
		}
		if isTargetSrc && start-back-1 < len(base) {
			break
		}
		back++
	}
	return match{start: start - back, length: n + back, back: back}
}

// diffConfigs are the coder configurations the differential tests sweep.
func diffConfigs() []struct {
	name string
	opts []Option
} {
	return []struct {
		name string
		opts []Option
	}{
		{"default", nil},
		{"chunk8", []Option{WithChunkSize(8)}},
		{"chain1", []Option{WithMaxChain(1)}},
		{"chain64", []Option{WithMaxChain(64)}},
		{"no-target-match", []Option{WithTargetMatching(false)}},
		{"no-checksum", []Option{WithChecksum(false)}},
		{"minmatch12", []Option{WithMinMatch(12)}},
	}
}

// checkDifferential asserts that the flat-index encoder (both the per-call
// Encode path and the reused-Index path) matches the map-based reference
// byte-for-byte and that the delta round-trips.
func checkDifferential(t *testing.T, c *Coder, base, target []byte, label string) {
	t.Helper()
	want := refEncode(c.cfg, base, target)
	got, err := c.Encode(base, target)
	if err != nil {
		t.Fatalf("%s: Encode: %v", label, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: flat-index Encode differs from map-based reference (%d vs %d bytes)",
			label, len(got), len(want))
	}
	indexed, err := c.EncodeIndexed(c.NewIndex(base), target)
	if err != nil {
		t.Fatalf("%s: EncodeIndexed: %v", label, err)
	}
	if !bytes.Equal(indexed, want) {
		t.Fatalf("%s: EncodeIndexed differs from map-based reference (%d vs %d bytes)",
			label, len(indexed), len(want))
	}
	doc, err := c.Decode(base, got)
	if err != nil {
		t.Fatalf("%s: Decode: %v", label, err)
	}
	if !bytes.Equal(doc, target) {
		t.Fatalf("%s: round trip mismatch", label)
	}
}

// fuzzCorpusSeeds are the FuzzRoundTrip seed pairs, reused here so the
// differential check covers the corpus that fuzzing starts from.
func fuzzCorpusSeeds() [][2][]byte {
	return [][2][]byte{
		{[]byte("base"), []byte("target")},
		{{}, []byte("only target")},
		{[]byte("only base"), {}},
		{bytes.Repeat([]byte("ab"), 300), bytes.Repeat([]byte("ab"), 301)},
		{[]byte("x"), bytes.Repeat([]byte("x"), 500)},
	}
}

func TestFlatIndexMatchesMapReferenceSeeds(t *testing.T) {
	for _, cfg := range diffConfigs() {
		c := NewCoder(cfg.opts...)
		for i, seed := range fuzzCorpusSeeds() {
			checkDifferential(t, c, seed[0], seed[1], fmt.Sprintf("%s/seed%d", cfg.name, i))
		}
	}
}

func TestFlatIndexMatchesMapReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 8))
	for _, cfg := range diffConfigs() {
		c := NewCoder(cfg.opts...)
		for i := 0; i < 30; i++ {
			base, target := randDoc(rng, 100+rng.IntN(6000))
			checkDifferential(t, c, base, target, fmt.Sprintf("%s/iter%d", cfg.name, i))
		}
	}
}

// TestFlatIndexMatchesMapReferenceAdversarial targets the structural edge
// cases of the chain arrays: single repeated bytes (maximal chain cycles in
// one slot), alternating patterns, and sizes straddling the chunk width.
func TestFlatIndexMatchesMapReferenceAdversarial(t *testing.T) {
	cases := [][2][]byte{
		{bytes.Repeat([]byte("a"), 2000), bytes.Repeat([]byte("a"), 1999)},
		{bytes.Repeat([]byte("ab"), 1000), bytes.Repeat([]byte("ba"), 1000)},
		{bytes.Repeat([]byte("abcd"), 500), append(bytes.Repeat([]byte("abcd"), 250), bytes.Repeat([]byte("dcba"), 250)...)},
		{[]byte("abc"), []byte("abc")},       // below chunk width
		{[]byte("abcd"), []byte("abcd")},     // exactly chunk width
		{[]byte("abcde"), []byte("xabcdex")}, // one past chunk width
		{nil, bytes.Repeat([]byte{0}, 1000)}, // empty base, zero runs
		{bytes.Repeat([]byte{0}, 1000), nil}, // empty target
	}
	for _, cfg := range diffConfigs() {
		c := NewCoder(cfg.opts...)
		for i, tc := range cases {
			checkDifferential(t, c, tc[0], tc[1], fmt.Sprintf("%s/case%d", cfg.name, i))
		}
	}
}
