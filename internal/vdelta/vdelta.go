// Package vdelta implements a Vdelta-style delta codec (Hunt, Vo, Tichy;
// ACM TOSEM 1998), the algorithm the paper builds on.
//
// Encode produces a compact instruction stream (the "delta") that, combined
// with the base-file it was computed against, reconstructs the target
// document byte-for-byte. The encoder indexes the base-file with a hash
// table keyed by w-byte chunks (w=4 by default, as in the paper), finds
// maximally long matches by extending candidate matches both forwards and
// backwards, and can additionally copy from the already-emitted target
// prefix, which gives cheap run-length behaviour.
//
// The package also provides the "light" variant the paper uses for cheap
// class-grouping probes (footnote 2): larger byte-chunks and forward-only
// traversal; see Estimator.
package vdelta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"sync"
)

// Wire format constants. A delta is
//
//	"VD03" | flags | uvarint baseLen | uvarint targetLen | [crc32c BE]
//	  | uvarint dataLen | uvarint instLen | uvarint addrLen | data | inst | addr
//
// data holds the ADD literals in order, inst one opcode and uvarint length
// per instruction, and addr one uvarint virtual-source offset per COPY: the
// three sections of RFC 3284, which an entropy coder compresses far better
// apart than interleaved. A "VD02" delta (one interleaved stream) is corrupt.
const (
	magic0 = 'V'
	magic1 = 'D'
	magic2 = '0'
	magic3 = '3'

	flagChecksum = 1 << 0

	opAdd  = 0x01
	opCopy = 0x02
)

// Defaults for encoder configuration.
const (
	DefaultChunkSize = 4
	DefaultMaxChain  = 16
	// DefaultMinMatch is above the chunk width because a COPY costs an
	// instruction and an address: on catalog pages, leaving 4- and 5-byte
	// matches as literals makes the gzipped delta about 7 % smaller.
	DefaultMinMatch = 6

	minChunkSize = 2
	maxChunkSize = 64
)

// Errors returned by Decode and Ops.
var (
	// ErrCorrupt reports a structurally invalid or truncated delta.
	ErrCorrupt = errors.New("vdelta: corrupt delta")
	// ErrBaseMismatch reports that the base-file supplied to Decode is not
	// the base-file the delta was encoded against.
	ErrBaseMismatch = errors.New("vdelta: base-file does not match delta")
	// ErrChecksum reports that the reconstructed target failed verification.
	ErrChecksum = errors.New("vdelta: target checksum mismatch")
)

type config struct {
	chunkSize      int
	maxChain       int
	minMatch       int
	targetMatching bool
	checksum       bool
}

func defaultConfig() config {
	return config{
		chunkSize:      DefaultChunkSize,
		maxChain:       DefaultMaxChain,
		minMatch:       DefaultMinMatch,
		targetMatching: true,
		checksum:       true,
	}
}

// Option configures a Coder.
type Option func(*config)

// WithChunkSize sets the width, in bytes, of the chunks used to key the
// hash-table index. The paper's Vdelta uses 4; the light grouping variant
// uses larger chunks. Values are clamped to [2, 64].
func WithChunkSize(w int) Option {
	return func(c *config) {
		if w < minChunkSize {
			w = minChunkSize
		}
		if w > maxChunkSize {
			w = maxChunkSize
		}
		c.chunkSize = w
		if c.minMatch < w {
			c.minMatch = w
		}
	}
}

// WithMaxChain bounds how many candidate positions are kept per hash bucket.
// Larger values find better matches at higher CPU cost.
func WithMaxChain(n int) Option {
	return func(c *config) {
		if n < 1 {
			n = 1
		}
		c.maxChain = n
	}
}

// WithMinMatch sets the minimum match length worth emitting as a COPY.
// It is raised to the chunk size if smaller.
func WithMinMatch(n int) Option {
	return func(c *config) {
		if n < minChunkSize {
			n = minChunkSize
		}
		c.minMatch = n
	}
}

// WithTargetMatching enables or disables copies from the already-encoded
// target prefix (enabled by default).
func WithTargetMatching(enabled bool) Option {
	return func(c *config) { c.targetMatching = enabled }
}

// WithChecksum enables or disables embedding a CRC-32C checksum of the
// target in the delta (enabled by default).
func WithChecksum(enabled bool) Option {
	return func(c *config) { c.checksum = enabled }
}

// Coder is a reusable, configured encoder/decoder. The zero value is not
// valid; use NewCoder. A Coder is safe for concurrent use: its configuration
// is immutable and its scratch pool is concurrency-safe.
type Coder struct {
	cfg config
	// pool recycles per-call encode state (index arrays and the output
	// scratch buffer) so steady-state encodes allocate only the delta they
	// return. Keyed off the Coder — and therefore off its config — because
	// array sizing depends on chunkSize/maxChain.
	pool sync.Pool
}

// NewCoder returns a Coder with the given options applied over the defaults.
func NewCoder(opts ...Option) *Coder {
	cfg := defaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.minMatch < cfg.chunkSize {
		cfg.minMatch = cfg.chunkSize
	}
	c := &Coder{cfg: cfg}
	c.pool.New = func() any { return new(encState) }
	return c
}

// Encode computes the delta that transforms base into target using the
// default configuration.
func Encode(base, target []byte) ([]byte, error) {
	return NewCoder().Encode(base, target)
}

// Decode is the package-level Decode: decoding reads no configuration.
func (c *Coder) Decode(base, delta []byte) ([]byte, error) {
	return Decode(base, delta)
}

// maxInputLen bounds encoder inputs so offsets fit the wire format.
const maxInputLen = math.MaxInt32

// MaxDecodeTarget bounds the target size a delta may declare, so forged
// deltas cannot bomb the decoder with one giant allocation. Web documents
// are orders of magnitude below this. Callers that inflate a delta before
// decoding it bound the inflated size by the same constant.
const MaxDecodeTarget = 1 << 28 // 256 MiB

func errInputTooLarge(baseLen, targetLen int) error {
	return fmt.Errorf("vdelta: input too large (base %d, target %d bytes)", baseLen, targetLen)
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksumOf returns the CRC-32C (Castagnoli) of b: hardware-accelerated on
// amd64 and arm64, so verifying a target costs less than reconstructing it.
func checksumOf(b []byte) uint32 {
	return crc32.Checksum(b, castagnoli)
}

// hashChunk hashes the w bytes starting at b[i]. Callers guarantee
// i+w <= len(b).
func hashChunk(b []byte, i, w int) uint32 {
	// FNV-1a unrolled over w bytes; cheap and well distributed for small w.
	h := uint32(2166136261)
	for _, c := range b[i : i+w] {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// hash16 hashes the 16 bytes at the start of b, which callers guarantee to
// hold at least that many: two 64-bit loads folded through one widening
// multiply, instead of FNV's sixteen dependent ones. It keys the light
// estimator's default chunk width, where a hash is taken at every literal
// target position; the encoder's 4-byte chunks keep hashChunk.
func hash16(b []byte) uint32 {
	b = b[:16]
	hi, lo := bits.Mul64(
		binary.LittleEndian.Uint64(b)^0x9E3779B97F4A7C15,
		binary.LittleEndian.Uint64(b[8:])^0xC2B2AE3D27D4EB4F)
	return uint32(hi ^ lo)
}

// matchLen returns the length of the longest common prefix of a and b,
// comparing eight bytes at a time. It is the forward match extension of
// both the encoder and the light estimator.
func matchLen(a, b []byte) int {
	if len(a) > len(b) {
		a = a[:len(b)]
	}
	b = b[:len(a)]
	n := 0
	for ; n+8 <= len(a); n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < len(a) && a[n] == b[n] {
		n++
	}
	return n
}

// chunkIndex maps chunk hashes to source positions using zlib-style flat
// chain arrays instead of a map of slices: head[h&mask] holds the most
// recently inserted position for a hash slot, and prev[pos-bias] links each
// position to the previously inserted one sharing its slot. Insertion is
// O(1) and allocation-free after init; the maxChain bound is applied at
// lookup time by walking at most maxChain links, newest-first.
//
// Positions are virtual-source offsets (base first, then target prefix);
// bias is the virtual offset of prev[0], so a target-prefix index stores
// only len(target) links. Callers must insert positions in strictly
// monotonic order — re-inserting a position would create a cycle in the
// chain (bounded walks keep that from looping forever, but it loses older
// candidates). Insertion order doubles as candidate priority: the bounded
// lookup walks last-inserted-first. Static indexes over a whole base are
// built in decreasing position order, so lookups prefer the oldest (lowest)
// positions, which have the longest forward runway on repetitive content;
// the incremental target-prefix index necessarily inserts in increasing
// order and so prefers recent positions, as zlib does.
type chunkIndex struct {
	mask     uint32
	bias     int32
	maxChain int
	head     []int32 // 1<<k entries, -1 = empty slot
	prev     []int32 // one entry per insertable position
}

// maxHashSpace caps the head array (4 MiB of int32) so multi-hundred-MB
// bases degrade to longer chains instead of unbounded table growth.
const maxHashSpace = 1 << 20

// hashSpaceFor returns the power-of-two head size for the expected number of
// insertable positions (load factor ~1, floor 256).
func hashSpaceFor(positions int) int {
	n := 256
	for n < positions && n < maxHashSpace {
		n <<= 1
	}
	return n
}

// positionCount returns how many chunk positions a buffer of length n yields
// at the given chunk width and stride.
func positionCount(n, w, stride int) int {
	if n < w {
		return 0
	}
	return (n-w)/stride + 1
}

// init sizes (or re-sizes, reusing capacity) the arrays for the given number
// of insertable positions and clears the table. It is what makes a pooled
// chunkIndex reusable across encodes.
func (idx *chunkIndex) init(positions int, bias int32, maxChain int) {
	n := hashSpaceFor(positions)
	if cap(idx.head) >= n {
		idx.head = idx.head[:n]
	} else {
		idx.head = make([]int32, n)
	}
	for i := range idx.head {
		idx.head[i] = -1
	}
	if cap(idx.prev) >= positions {
		idx.prev = idx.prev[:positions]
	} else {
		idx.prev = make([]int32, positions)
	}
	idx.mask = uint32(n - 1)
	idx.bias = bias
	idx.maxChain = maxChain
}

// newChunkIndex allocates a fresh index for the given number of positions.
func newChunkIndex(positions, maxChain int) *chunkIndex {
	idx := &chunkIndex{}
	idx.init(positions, 0, maxChain)
	return idx
}

// add records pos (a virtual-source offset ≥ bias) under hash h. Positions
// must be added in strictly monotonic order (see the type comment).
func (idx *chunkIndex) add(h uint32, pos int32) {
	slot := h & idx.mask
	idx.prev[pos-idx.bias] = idx.head[slot]
	idx.head[slot] = pos
}

// encState is the pooled per-call encoder state: the index arrays and the
// three section buffers. Returned deltas never alias it — they are assembled
// into a fresh slice (Encode, EncodeIndexed) or a caller-supplied buffer
// (EncodeIndexedInto) — so recycling it is safe.
type encState struct {
	baseIdx   chunkIndex
	targetIdx chunkIndex
	sections
}

func (c *Coder) getState() *encState { return c.pool.Get().(*encState) }

// Encode computes the delta that transforms base into target.
//
// The returned delta embeds the lengths of both files (and, unless disabled,
// a checksum of the target) so that Decode can detect mismatched or corrupt
// inputs. Encode never fails for in-range inputs; the error return exists
// for forward compatibility and length-overflow protection.
func (c *Coder) Encode(base, target []byte) ([]byte, error) {
	if len(base) > maxInputLen || len(target) > maxInputLen {
		return nil, errInputTooLarge(len(base), len(target))
	}
	w := c.cfg.chunkSize
	st := c.getState()
	defer c.pool.Put(st)

	// Index every base position (chains bounded at lookup). Positions in the
	// virtual source are [0, len(base)) for the base and [len(base), ...)
	// for the target prefix. Decreasing insertion order makes bounded
	// lookups prefer the oldest positions, as the map-based index did.
	st.baseIdx.init(positionCount(len(base), w, 1), 0, c.cfg.maxChain)
	for i := len(base) - w; i >= 0; i-- {
		st.baseIdx.add(hashChunk(base, i, w), int32(i))
	}
	enc := c.newEncoder(st, base, &st.baseIdx, target)
	enc.run(nil)
	return enc.appendDelta(nil), nil
}

// deltaEncoder holds the per-call encoding state.
type deltaEncoder struct {
	cfg       config
	base      []byte
	target    []byte
	baseIdx   *chunkIndex
	targetIdx *chunkIndex

	st       *encState // the sections being written
	litStart int       // start of the pending literal run in target
	pos      int       // current scan position in target
}

// match describes a candidate copy. start is a virtual-source offset
// (base first, then target prefix); length counts matched bytes including
// any backward extension; back is how many of those bytes extend backwards
// into the pending literal run.
type match struct {
	start  int
	length int
	back   int
}

// newEncoder wires an encoder over base (indexed by baseIdx) and target,
// writing into st's emptied sections, with the target-prefix index drawn
// from st when target matching is on.
func (c *Coder) newEncoder(st *encState, base []byte, baseIdx *chunkIndex, target []byte) deltaEncoder {
	st.data, st.inst, st.addr = st.data[:0], st.inst[:0], st.addr[:0]
	e := deltaEncoder{cfg: c.cfg, base: base, target: target, baseIdx: baseIdx, st: st}
	if c.cfg.targetMatching {
		e.targetIdx = &st.targetIdx
	}
	return e
}

// run encodes the target into the sections: it first replays the verified
// prefix of hint (a previous delta against the same base; nil for none),
// then scans the rest. It returns how many target bytes the replay covered.
func (e *deltaEncoder) run(hint []byte) int {
	base, target := e.base, e.target
	w := e.cfg.chunkSize

	replayed := e.replay(hint)
	e.pos, e.litStart = replayed, replayed
	if e.targetIdx != nil {
		// Only the suffix still to scan is indexed for self-copies (bias).
		e.targetIdx.init(positionCount(len(target)-replayed, w, 1), int32(len(base)+replayed), e.cfg.maxChain)
	}

	for e.pos+w <= len(target) {
		h := hashChunk(target, e.pos, w)
		best := e.bestMatch(h)
		if best.length >= e.cfg.minMatch {
			e.flushLiterals(e.pos - best.back)
			e.st.appendCopy(best.start, best.length)
			// Index the copied region so later target self-matches can find
			// it. Positions before e.pos were already inserted one-by-one
			// while the literal run was scanned; the chain arrays require
			// strictly increasing inserts, so start at e.pos.
			if e.targetIdx != nil {
				e.indexTargetRange(e.pos, e.pos-best.back+best.length)
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
	return replayed
}

// replay re-emits the leading instructions of hint that verify against the
// target and returns the offset they reach, stopping at the first that does
// not, the end of the instructions or anything malformed, so no byte of the
// hint's own target reaches the output. Short of the target's end, the last
// one's extent fit the hint's target: a trailing copy is extended while it
// still matches, a trailing literal is handed back for the scan to merge
// with what follows.
func (e *deltaEncoder) replay(hint []byte) int {
	if hint == nil {
		return 0 // parseDelta would allocate its error
	}
	hdr, h, err := parseDelta(hint)
	if err != nil || hdr.baseLen != len(e.base) {
		return 0
	}
	// Verified instructions fill a prefix of each of h's sections, so they
	// are re-emitted by copying those prefixes whole: rest is h past the
	// verified instructions, before is h past all but the last of them.
	var op, last Op
	pos, lastPos := 0, 0
	rest, before := h, h
	for len(rest.inst) > 0 {
		after := rest
		if after.next(&op) != nil || !e.verifyOp(&op, pos) {
			break
		}
		last, lastPos, before, rest = op, pos, rest, after
		pos += op.Len
	}
	switch {
	case pos == len(e.target): // nothing left to fit
	case last.Kind == OpAdd:
		pos, rest = lastPos, before
	case last.Kind == OpCopy:
		end := last.Start + last.Len
		src := e.base[min(end, len(e.base)):]
		if last.Start >= len(e.base) {
			src = e.target[end-len(e.base):]
		}
		if n := matchLen(src, e.target[pos:]); n > 0 {
			e.st.appendPrefix(h, before)
			e.st.appendCopy(last.Start, last.Len+n)
			return pos + n
		}
	}
	e.st.appendPrefix(h, rest)
	return pos
}

// verifyOp reports whether op, non-empty, reproduces the target at offset
// pos under the decoder's rules.
func (e *deltaEncoder) verifyOp(op *Op, pos int) bool {
	n := op.Len
	if n == 0 || n > len(e.target)-pos {
		return false
	}
	want := e.target[pos : pos+n]
	switch {
	case op.Kind == OpAdd:
		return bytes.Equal(op.Data, want)
	case op.Start < len(e.base): // a base copy lies wholly inside the base
		return n <= len(e.base)-op.Start && bytes.Equal(e.base[op.Start:op.Start+n], want)
	}
	// A self-copy from below pos reads each byte after writing it.
	from := op.Start - len(e.base)
	return e.cfg.targetMatching && from < pos && bytes.Equal(e.target[from:from+n], want)
}

// indexTargetRange adds chunk hashes for target[from:to) to the target
// index, stepping by chunk size to bound the cost of long copies.
func (e *deltaEncoder) indexTargetRange(from, to int) {
	w := e.cfg.chunkSize
	for i := from; i+w <= to && i+w <= len(e.target); i += w {
		e.targetIdx.add(hashChunk(e.target, i, w), int32(len(e.base)+i))
	}
}

// bestMatch returns the best match for the chunk hash h at e.pos, extending
// candidates forwards and backwards.
func (e *deltaEncoder) bestMatch(h uint32) match {
	var best match
	e.scanChain(e.baseIdx, h, &best)
	if e.targetIdx != nil {
		e.scanChain(e.targetIdx, h, &best)
	}
	return best
}

// scanChain walks at most maxChain candidates for h, newest-first, keeping
// the best per better's order-independent criterion.
func (e *deltaEncoder) scanChain(idx *chunkIndex, h uint32, best *match) {
	pos := idx.head[h&idx.mask]
	for n := 0; pos >= 0 && n < idx.maxChain; n++ {
		if m := e.extend(int(pos)); better(m, *best) {
			*best = m
		}
		pos = idx.prev[pos-idx.bias]
	}
}

// better reports whether m improves on best. Longer matches win; ties go to
// the smaller virtual-source start, then the smaller backward extension.
// Because ties never depend on which candidate was examined first, the
// chosen match is a function of the candidate set alone — chain-array and
// map-based indexes over the same positions produce byte-identical deltas,
// which is what the differential tests assert.
func better(m, best match) bool {
	if m.length != best.length {
		return m.length > best.length
	}
	if m.length == 0 {
		return false
	}
	if m.start != best.start {
		return m.start < best.start
	}
	return m.back < best.back
}

// srcByte returns the byte at virtual-source offset i: the base followed by
// the target prefix.
func (e *deltaEncoder) srcByte(i int) byte {
	if i < len(e.base) {
		return e.base[i]
	}
	return e.target[i-len(e.base)]
}

// extend verifies and maximally extends a candidate match whose chunk starts
// at virtual-source offset start, against the target at e.pos.
func (e *deltaEncoder) extend(start int) match {
	base, target := e.base, e.target
	// A target self-copy may read up to, but not past, the data that will
	// have been reconstructed when this copy executes. Decoder copies
	// byte-by-byte, so overlapping forward extension past e.pos is legal
	// (run-length behaviour): the source byte at offset len(base)+k is
	// available once target[k] has been written.
	isTargetSrc := start >= len(base)

	// Forward extension, verifying from the chunk start.
	var src []byte
	if isTargetSrc {
		// Source byte k of the target prefix is only available if
		// k < (position being written), i.e. start+n-len(base) < pos+n,
		// which reduces to start-len(base) < pos and always holds for
		// candidates indexed before pos. Overlap is therefore safe, and the
		// source runs out only after the target does.
		src = target[start-len(base):]
	} else {
		src = base[start:]
	}
	n := matchLen(src, target[e.pos:])
	if n < e.cfg.chunkSize {
		return match{}
	}

	// Backward extension into the pending literal run.
	back := 0
	for e.pos-back > e.litStart && start-back > 0 {
		if e.srcByte(start-back-1) != target[e.pos-back-1] {
			break
		}
		if isTargetSrc && start-back-1 < len(base) {
			// Do not extend a target self-copy backwards into the base.
			break
		}
		back++
	}
	return match{start: start - back, length: n + back, back: back}
}

// flushLiterals emits the pending literal run target[litStart:upto) as an
// ADD instruction.
func (e *deltaEncoder) flushLiterals(upto int) {
	if upto <= e.litStart {
		return
	}
	e.st.appendAdd(e.target[e.litStart:upto])
	e.litStart = upto
}

// appendDelta appends the finished delta — header, section lengths and
// sections — to dst, growing it at most once, to exactly the delta's size.
func (e *deltaEncoder) appendDelta(dst []byte) []byte {
	h := header{baseLen: len(e.base), targetLen: len(e.target), hasChecksum: e.cfg.checksum}
	if h.hasChecksum {
		h.checksum = checksumOf(e.target)
	}
	return e.st.appendDelta(dst, h)
}
