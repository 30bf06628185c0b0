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

// Wire format constants.
const (
	magic0 = 'V'
	magic1 = 'D'
	magic2 = '0'
	magic3 = '2' // "VD02": the target checksum is CRC-32C; a "VD01" (FNV-32a) delta is corrupt

	flagChecksum = 1 << 0

	opEnd  = 0x00
	opAdd  = 0x01
	opCopy = 0x02
)

// Defaults for encoder configuration.
const (
	DefaultChunkSize = 4
	DefaultMaxChain  = 16
	DefaultMinMatch  = 4

	minChunkSize = 2
	maxChunkSize = 64
)

// Errors returned by Decode and Stats.
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

// Decode reconstructs the target from base and delta using the default
// configuration.
func Decode(base, delta []byte) ([]byte, error) {
	return NewCoder().Decode(base, delta)
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
// output scratch buffer. Returned deltas never alias it — they are copied
// out (Encode, EncodeIndexed) or written into a caller-supplied buffer
// (EncodeIndexedInto) — so recycling it is safe.
type encState struct {
	baseIdx   chunkIndex
	targetIdx chunkIndex
	out       []byte
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
	enc := c.newEncoder(st, base, &st.baseIdx, target, st.out[:0])
	out, _ := enc.run(nil)
	st.out = out // retain the grown scratch for the next encode
	delta := make([]byte, len(out))
	copy(delta, out)
	return delta, nil
}

// deltaEncoder holds the per-call encoding state.
type deltaEncoder struct {
	cfg       config
	base      []byte
	target    []byte
	baseIdx   *chunkIndex
	targetIdx *chunkIndex

	out      []byte
	litStart int // start of the pending literal run in target
	pos      int // current scan position in target
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
// with the target-prefix index drawn from st when target matching is on.
func (c *Coder) newEncoder(st *encState, base []byte, baseIdx *chunkIndex, target, out []byte) deltaEncoder {
	e := deltaEncoder{cfg: c.cfg, base: base, target: target, baseIdx: baseIdx, out: out}
	if c.cfg.targetMatching {
		e.targetIdx = &st.targetIdx
	}
	return e
}

// run encodes the target: it first replays the verified prefix of hint (a
// previous delta against the same base; nil for none), then scans the rest.
// It returns the delta and how many target bytes the replay covered.
func (e *deltaEncoder) run(hint []byte) ([]byte, int) {
	base, target := e.base, e.target
	w := e.cfg.chunkSize

	if cap(e.out) == 0 {
		e.out = make([]byte, 0, len(target)/4+32)
	}
	e.writeHeader()
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
			e.emitCopy(best.start, best.length)
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
	e.out = append(e.out, opEnd)
	return e.out, replayed
}

// replay re-emits the leading instructions of hint that verify against the
// target and returns the offset they reach, stopping at the first that does
// not, the end marker or anything malformed, so no byte of the hint's own
// target reaches the output. Short of the target's end, the last one's extent
// fit the hint's target: a trailing copy is extended while it still matches,
// a trailing literal is handed back for the scan to merge with what follows.
func (e *deltaEncoder) replay(hint []byte) int {
	if hint == nil {
		return 0 // parseHeader would allocate its error
	}
	hdr, body, err := parseHeader(hint)
	if err != nil || hdr.baseLen != len(e.base) {
		return 0
	}
	var last Op
	pos, lastPos, lastOut := 0, 0, len(e.out)
	for len(body) > 0 {
		op, rest, ok := e.verifyOp(body, pos)
		if !ok {
			break
		}
		last, lastPos, lastOut = op, pos, len(e.out)
		e.out, body, pos = append(e.out, body[:len(body)-len(rest)]...), rest, pos+op.Len
	}
	switch {
	case pos == len(e.target): // nothing left to fit
	case last.Kind == OpAdd:
		e.out = e.out[:lastOut]
		return lastPos
	case last.Kind == OpCopy:
		end := last.Start + last.Len
		src := e.base[min(end, len(e.base)):]
		if last.Start >= len(e.base) {
			src = e.target[end-len(e.base):]
		}
		if n := matchLen(src, e.target[pos:]); n > 0 {
			e.out = e.out[:lastOut]
			e.emitCopy(last.Start, last.Len+n)
			pos += n
		}
	}
	return pos
}

// verifyOp parses the instruction at the head of body and returns it (Len
// set for both kinds) with the rest of body; ok reports a non-empty ADD or
// COPY that reproduces the target at offset pos under the decoder's rules.
func (e *deltaEncoder) verifyOp(body []byte, pos int) (op Op, rest []byte, ok bool) {
	var n, start int
	var err error
	switch body[0] {
	case opAdd:
		n, rest, err = readUvarint(body[1:])
		if err != nil || n > len(rest) || n > len(e.target)-pos {
			return op, nil, false
		}
		op = Op{Kind: OpAdd, Data: rest[:n], Len: n}
		return op, rest[n:], n > 0 && bytes.Equal(op.Data, e.target[pos:pos+n])
	case opCopy:
		if start, rest, err = readUvarint(body[1:]); err == nil {
			n, rest, err = readUvarint(rest)
		}
		op = Op{Kind: OpCopy, Start: start, Len: n}
		if err != nil || n == 0 || n > len(e.target)-pos {
			return op, nil, false
		}
		want := e.target[pos : pos+n]
		if start < len(e.base) { // a base copy lies wholly inside the base
			return op, rest, n <= len(e.base)-start && bytes.Equal(e.base[start:start+n], want)
		}
		// A self-copy from below pos reads each byte after writing it.
		from := start - len(e.base)
		return op, rest, e.cfg.targetMatching && from < pos && bytes.Equal(e.target[from:from+n], want)
	}
	return op, nil, false // the end marker, or garbage
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

func (e *deltaEncoder) writeHeader() {
	e.out = append(e.out, magic0, magic1, magic2, magic3)
	var flags byte
	if e.cfg.checksum {
		flags |= flagChecksum
	}
	e.out = append(e.out, flags)
	e.out = binary.AppendUvarint(e.out, uint64(len(e.base)))
	e.out = binary.AppendUvarint(e.out, uint64(len(e.target)))
	if e.cfg.checksum {
		e.out = binary.BigEndian.AppendUint32(e.out, checksumOf(e.target))
	}
}

// flushLiterals emits the pending literal run target[litStart:upto) as an
// ADD instruction.
func (e *deltaEncoder) flushLiterals(upto int) {
	if upto <= e.litStart {
		return
	}
	lit := e.target[e.litStart:upto]
	e.out = append(e.out, opAdd)
	e.out = binary.AppendUvarint(e.out, uint64(len(lit)))
	e.out = append(e.out, lit...)
	e.litStart = upto
}

func (e *deltaEncoder) emitCopy(start, length int) {
	e.out = append(e.out, opCopy)
	e.out = binary.AppendUvarint(e.out, uint64(start))
	e.out = binary.AppendUvarint(e.out, uint64(length))
}

// Decode reconstructs the target document from base and delta.
//
// It returns ErrBaseMismatch if base has a different length than the
// base-file the delta was encoded against, ErrCorrupt for malformed input,
// and ErrChecksum if the reconstructed target fails verification.
func (c *Coder) Decode(base, delta []byte) ([]byte, error) {
	hdr, body, err := parseHeader(delta)
	if err != nil {
		return nil, err
	}
	if hdr.baseLen != len(base) {
		return nil, fmt.Errorf("%w: delta was encoded against a %d-byte base, got %d bytes",
			ErrBaseMismatch, hdr.baseLen, len(base))
	}
	if hdr.targetLen > MaxDecodeTarget {
		return nil, fmt.Errorf("%w: declared target of %d bytes exceeds limit", ErrCorrupt, hdr.targetLen)
	}

	// Allocate from actual instruction output, not the header value a
	// forged delta controls; the end-marker check still enforces the
	// declared length.
	capHint := hdr.targetLen
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	out := make([]byte, 0, capHint)
	for {
		if len(body) == 0 {
			return nil, fmt.Errorf("%w: missing end marker", ErrCorrupt)
		}
		op := body[0]
		body = body[1:]
		switch op {
		case opEnd:
			if len(out) != hdr.targetLen {
				return nil, fmt.Errorf("%w: reconstructed %d bytes, header says %d",
					ErrCorrupt, len(out), hdr.targetLen)
			}
			if hdr.hasChecksum && checksumOf(out) != hdr.checksum {
				return nil, ErrChecksum
			}
			return out, nil

		case opAdd:
			n, rest, err := readUvarint(body)
			if err != nil {
				return nil, err
			}
			body = rest
			if n > len(body) {
				return nil, fmt.Errorf("%w: ADD of %d bytes overruns delta", ErrCorrupt, n)
			}
			if len(out)+n > hdr.targetLen {
				return nil, fmt.Errorf("%w: ADD overruns target length", ErrCorrupt)
			}
			out = append(out, body[:n]...)
			body = body[n:]

		case opCopy:
			start, rest, err := readUvarint(body)
			if err != nil {
				return nil, err
			}
			length, rest, err := readUvarint(rest)
			if err != nil {
				return nil, err
			}
			body = rest
			if len(out)+length > hdr.targetLen {
				return nil, fmt.Errorf("%w: COPY overruns target length", ErrCorrupt)
			}
			if start < len(base) {
				// Copy from base; must fit entirely unless it spills into
				// the target prefix region, which the encoder never emits.
				if start+length > len(base) {
					return nil, fmt.Errorf("%w: COPY [%d,%d) overruns base of %d bytes",
						ErrCorrupt, start, start+length, len(base))
				}
				out = append(out, base[start:start+length]...)
			} else {
				// Copy from the already-reconstructed target prefix.
				from := start - len(base)
				if from >= len(out) {
					return nil, fmt.Errorf("%w: COPY from unwritten target offset %d (have %d)",
						ErrCorrupt, from, len(out))
				}
				// An overlapping source repeats out[from:len]: appending that
				// whole span each round copies whole periods, doubling it.
				for length > 0 {
					n := min(length, len(out)-from)
					out = append(out, out[from:from+n]...)
					length -= n
				}
			}

		default:
			return nil, fmt.Errorf("%w: unknown opcode 0x%02x", ErrCorrupt, op)
		}
	}
}

type header struct {
	baseLen     int
	targetLen   int
	hasChecksum bool
	checksum    uint32
}

func parseHeader(delta []byte) (header, []byte, error) {
	var hdr header
	if len(delta) < 5 || delta[0] != magic0 || delta[1] != magic1 || delta[2] != magic2 || delta[3] != magic3 {
		return hdr, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	flags := delta[4]
	body := delta[5:]
	baseLen, body, err := readUvarint(body)
	if err != nil {
		return hdr, nil, err
	}
	targetLen, body, err := readUvarint(body)
	if err != nil {
		return hdr, nil, err
	}
	hdr.baseLen = baseLen
	hdr.targetLen = targetLen
	if flags&flagChecksum != 0 {
		if len(body) < 4 {
			return hdr, nil, fmt.Errorf("%w: truncated checksum", ErrCorrupt)
		}
		hdr.hasChecksum = true
		hdr.checksum = binary.BigEndian.Uint32(body[:4])
		body = body[4:]
	}
	return hdr, body, nil
}

func readUvarint(b []byte) (int, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: bad varint", ErrCorrupt)
	}
	if v > math.MaxInt32 {
		return 0, nil, fmt.Errorf("%w: varint out of range", ErrCorrupt)
	}
	return int(v), b[n:], nil
}

// Info summarizes the structure of an encoded delta.
type Info struct {
	BaseLen     int  // length of the base-file the delta was encoded against
	TargetLen   int  // length of the reconstructed target
	HasChecksum bool // whether the delta embeds a target checksum
	NumAdd      int  // number of ADD instructions
	NumCopy     int  // number of COPY instructions
	AddBytes    int  // total literal bytes carried in the delta
	CopyBytes   int  // total bytes reproduced via COPY instructions
}

// Stats parses delta and returns structural information without needing the
// base-file. It validates structure but not content.
func Stats(delta []byte) (Info, error) {
	hdr, body, err := parseHeader(delta)
	if err != nil {
		return Info{}, err
	}
	info := Info{BaseLen: hdr.baseLen, TargetLen: hdr.targetLen, HasChecksum: hdr.hasChecksum}
	for {
		if len(body) == 0 {
			return Info{}, fmt.Errorf("%w: missing end marker", ErrCorrupt)
		}
		op := body[0]
		body = body[1:]
		switch op {
		case opEnd:
			return info, nil
		case opAdd:
			n, rest, err := readUvarint(body)
			if err != nil {
				return Info{}, err
			}
			if n > len(rest) {
				return Info{}, fmt.Errorf("%w: ADD overruns delta", ErrCorrupt)
			}
			info.NumAdd++
			info.AddBytes += n
			body = rest[n:]
		case opCopy:
			_, rest, err := readUvarint(body)
			if err != nil {
				return Info{}, err
			}
			length, rest, err := readUvarint(rest)
			if err != nil {
				return Info{}, err
			}
			info.NumCopy++
			info.CopyBytes += length
			body = rest
		default:
			return Info{}, fmt.Errorf("%w: unknown opcode 0x%02x", ErrCorrupt, op)
		}
	}
}
