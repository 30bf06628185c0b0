package vdelta

import (
	"math/bits"
	"sync"
)

// DefaultEstimatorChunkSize is the chunk width of the light delta variant
// used for grouping probes. The paper's light Vdelta "uses larger
// byte-chunks and only traverses the file in the forward direction"
// (footnote 2).
const DefaultEstimatorChunkSize = 16

// Estimator implements the light delta variant: it estimates the size of the
// delta between a base-file and a document without materializing the delta.
// It indexes the base at chunk-aligned positions only and extends matches
// forward only, trading match quality for speed. The index is the same flat
// chain-array structure the full encoder uses, drawn from a pool so probes
// allocate nothing in steady state.
//
// An Estimator is safe for concurrent use.
type Estimator struct {
	chunkSize int
	maxChain  int
	pool      sync.Pool
}

// NewEstimator returns an Estimator. Supported options are WithChunkSize and
// WithMaxChain; others are ignored.
func NewEstimator(opts ...Option) *Estimator {
	cfg := defaultConfig()
	cfg.chunkSize = DefaultEstimatorChunkSize
	for _, opt := range opts {
		opt(&cfg)
	}
	e := &Estimator{chunkSize: cfg.chunkSize, maxChain: cfg.maxChain}
	e.pool.New = func() any { return new(EstimatorIndex) }
	return e
}

// EstimatorIndex is an Estimator's chunk index over one base-file, for
// estimating many documents against the same base (EstimateIndexed). It
// does not retain the base bytes. Indexes come from the Estimator's pool:
// hand one back with Release when done, and do not use it afterwards.
type EstimatorIndex struct {
	idx chunkIndex
	// filter is a one-hash Bloom filter over the indexed chunk hashes, 16
	// bits per hash slot and addressed by the hash's top bits (the slot
	// uses the bottom ones). A scan hashes every literal target position,
	// and on same-class documents all but a few percent of those hashes
	// are of content the base does not have: the filter turns them away
	// with one well-predicted branch, before the chain walk and its
	// byte comparisons.
	filter      []uint64
	filterShift uint
}

func (ix *EstimatorIndex) mayContain(h uint32) bool {
	bit := h >> ix.filterShift
	return ix.filter[bit>>6]&(1<<(bit&63)) != 0
}

// hash hashes the chunk at b[i:]; callers guarantee i+chunkSize <= len(b).
func (e *Estimator) hash(b []byte, i int) uint32 {
	if e.chunkSize == 16 {
		return hash16(b[i:])
	}
	return hashChunk(b, i, e.chunkSize)
}

// Index builds the chunk index of base. It must only be used with the
// Estimator that produced it, and only together with the same base bytes.
func (e *Estimator) Index(base []byte) *EstimatorIndex {
	w := e.chunkSize
	ix := e.pool.Get().(*EstimatorIndex)
	// The index stores chunk ordinals (i/w) rather than byte offsets, so the
	// prev array needs one entry per chunk, not per byte.
	chunks := positionCount(len(base), w, w)
	ix.idx.init(chunks, 0, e.maxChain)
	nbits := len(ix.idx.head) * 16 // a power of two, at most 1<<24
	if words := nbits / 64; cap(ix.filter) >= words {
		ix.filter = ix.filter[:words]
		clear(ix.filter)
	} else {
		ix.filter = make([]uint64, words)
	}
	ix.filterShift = uint(32 - bits.TrailingZeros(uint(nbits)))
	// Decreasing insertion order: bounded lookups prefer the oldest
	// positions (see the chunkIndex comment).
	for ord := int32(chunks) - 1; ord >= 0; ord-- {
		h := e.hash(base, int(ord)*w)
		ix.idx.add(h, ord)
		bit := h >> ix.filterShift
		ix.filter[bit>>6] |= 1 << (bit & 63)
	}
	return ix
}

// Release returns ix to the Estimator's pool.
func (e *Estimator) Release(ix *EstimatorIndex) { e.pool.Put(ix) }

// Estimate returns an estimate, in bytes, of the size of the delta that
// would transform base into target. The estimate is an upper bound in
// expectation relative to the full encoder, because the light variant finds
// fewer and shorter matches.
func (e *Estimator) Estimate(base, target []byte) int {
	ix := e.Index(base)
	defer e.Release(ix)
	return e.EstimateIndexed(ix, base, target)
}

// EstimateIndexed is Estimate against a prebuilt index of base, skipping
// the per-call indexing: ix must be e.Index(base) for these same base
// bytes. It only reads ix, so one index serves concurrent estimates.
func (e *Estimator) EstimateIndexed(ix *EstimatorIndex, base, target []byte) int {
	w := e.chunkSize
	idx := &ix.idx

	const headerOverhead = 5 + 4 // magic+flags, checksum
	size := headerOverhead + uvarintLen(uint64(len(base))) + uvarintLen(uint64(len(target))) + 1

	lit := 0
	pos := 0
	for pos+w <= len(target) {
		h := e.hash(target, pos)
		if !ix.mayContain(h) {
			lit++
			pos++
			continue
		}
		bestStart, bestLen := -1, 0
		p := idx.head[h&idx.mask]
		for k := 0; p >= 0 && k < idx.maxChain; k++ {
			start := int(p) * w
			n := matchLen(base[start:], target[pos:])
			if n > bestLen || (n == bestLen && n > 0 && start < bestStart) {
				bestStart, bestLen = start, n
			}
			p = idx.prev[p]
		}
		if bestLen >= w {
			if lit > 0 {
				size += 1 + uvarintLen(uint64(lit)) + lit
				lit = 0
			}
			size += 1 + uvarintLen(uint64(bestStart)) + uvarintLen(uint64(bestLen))
			pos += bestLen
			continue
		}
		lit++
		pos++
	}
	lit += len(target) - pos
	if lit > 0 {
		size += 1 + uvarintLen(uint64(lit)) + lit
	}
	return size
}

// uvarintLen returns the number of bytes binary.PutUvarint writes for v.
func uvarintLen(v uint64) int {
	return (bits.Len64(v|1) + 6) / 7
}
