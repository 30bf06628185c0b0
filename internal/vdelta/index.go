package vdelta

// Index is a reusable hash-table index over one base-file. Building the
// index is the dominant cost of Encode (every base position is hashed and
// chained); a delta-server encodes many documents against the same class
// base-file, so it indexes the base once per rebase and reuses the Index
// across requests. The index itself is two flat chain arrays (head over a
// power-of-two hash space, prev per base position) — see chunkIndex.
//
// An Index is immutable after construction and safe for concurrent use. It
// must only be used with the Coder configuration that produced it.
type Index struct {
	cfg  config
	base []byte
	idx  chunkIndex
}

// NewIndex builds a reusable index over base. The base bytes are copied, so
// callers may reuse their slice.
func (c *Coder) NewIndex(base []byte) *Index {
	b := make([]byte, len(base))
	copy(b, base)
	w := c.cfg.chunkSize
	ix := &Index{cfg: c.cfg, base: b}
	// Decreasing insertion order: bounded lookups prefer the oldest
	// positions (see the chunkIndex comment).
	ix.idx.init(positionCount(len(b), w, 1), 0, c.cfg.maxChain)
	for i := len(b) - w; i >= 0; i-- {
		ix.idx.add(hashChunk(b, i, w), int32(i))
	}
	return ix
}

// Base returns the indexed base-file bytes. Callers must not modify them.
func (ix *Index) Base() []byte { return ix.base }

// SizeBytes returns the index's resident footprint: the copied base bytes
// plus the two flat chain arrays (int32 head and prev). Struct headers are
// negligible next to these and are not counted. Memory-budget accounting
// uses this to charge lazily built indexes to the owning class.
func (ix *Index) SizeBytes() int64 {
	return int64(len(ix.base)) + 4*int64(len(ix.idx.head)+len(ix.idx.prev))
}

// Len returns the indexed base-file length.
func (ix *Index) Len() int { return len(ix.base) }

// EncodeIndexed computes the delta that transforms the indexed base into
// target, skipping the per-call base indexing that Encode performs. All
// per-call scratch (target index, output buffer) comes from the Coder's
// pool, so on a warm pool the only allocation is the returned delta, which
// the caller owns.
func (c *Coder) EncodeIndexed(ix *Index, target []byte) ([]byte, error) {
	if len(target) > maxInputLen {
		return nil, errInputTooLarge(len(ix.base), len(target))
	}
	st := c.getState()
	defer c.pool.Put(st)
	enc := c.newEncoder(st, ix.base, &ix.idx, target, st.out[:0])
	out, _ := enc.run(nil)
	st.out = out // retain the grown scratch for the next encode
	delta := make([]byte, len(out))
	copy(delta, out)
	return delta, nil
}

// EncodeIndexedInto is EncodeIndexed writing the delta into dst's storage
// (starting at dst[:0], growing as needed) and returning the result, which
// may or may not alias dst. It exists so callers with a request-scoped
// scratch buffer — the engine's hot path — can encode without allocating
// even the delta. The returned slice is only valid until dst is reused.
func (c *Coder) EncodeIndexedInto(ix *Index, target, dst []byte) ([]byte, error) {
	delta, _, err := c.EncodeHintedInto(ix, target, nil, dst)
	return delta, err
}

// EncodeHintedInto is EncodeIndexedInto given hint, an earlier delta against
// the same index for a similar target (say, the same URL's last document):
// it re-emits the leading instructions of hint that verify against target,
// searches only the rest, and also returns the target bytes replayed. Any
// hint (nil, stale, corrupt, another base's) yields a correct delta; it must
// not share storage with dst.
func (c *Coder) EncodeHintedInto(ix *Index, target, hint, dst []byte) ([]byte, int, error) {
	if len(target) > maxInputLen {
		return nil, 0, errInputTooLarge(len(ix.base), len(target))
	}
	st := c.getState()
	defer c.pool.Put(st)
	enc := c.newEncoder(st, ix.base, &ix.idx, target, dst[:0])
	delta, replayed := enc.run(hint)
	return delta, replayed, nil
}
