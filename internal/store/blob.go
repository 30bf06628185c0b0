// Spill blob codec: one class serialized as a compact binary record for
// the disk tier.
//
// A record payload is a sequence of length-prefixed sections:
//
//	uvarint keyLen, key bytes
//	uvarint distVersion
//	uvarint selectorVersion
//	uvarint tagLen, tag bytes
//	body(selector base)
//	uvarint baseCount, then per base: uvarint versionDelta (strictly
//	    ascending chain, delta from the previous version), body(bytes)
//	uvarint candCount, then per candidate: uvarint tagLen, tag, body
//	uvarint refCount, same shape as candidates
//	uvarint edgeCount, then per edge: uvarint from, uvarint to, one flag
//	    byte (1 = payload is gzip-compressed on the wire), uvarint rawLen,
//	    uvarint payloadLen, payload bytes verbatim
//
// where body is: one flag byte (0 raw, 1 gzip), uvarint rawLen, then
// either rawLen raw bytes or uvarint storedLen + storedLen gzip bytes.
// Edge payloads are stored verbatim — they are wire-ready deltas,
// typically already gzipped, so the codec never recompresses them.
// Bodies are gzipped through the pooled internal/gzipx writers and only
// kept compressed when that is actually smaller. Encode and decode
// scratch is pooled so spilling does not disturb the warm-path alloc
// budget.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"cbde/internal/gzipx"
)

// VersionedBlob is one retained base-file version inside a ClassRecord.
type VersionedBlob struct {
	Version int
	Bytes   []byte
}

// TaggedDoc is one stored selector sample (candidate or reference).
type TaggedDoc struct {
	Tag   string
	Bytes []byte
}

// EdgeBlob is one version-graph edge delta inside a ClassRecord: the
// wire-ready delta that rewrites base version From into base version To.
// Payload is stored exactly as it would be served (Gzipped reports whether
// it is gzip-compressed; RawLen is the uncompressed delta length, used by
// the chain-size estimator).
type EdgeBlob struct {
	From    int
	To      int
	Payload []byte
	Gzipped bool
	RawLen  int
}

// ClassRecord is the spillable state of one class: everything needed to
// fault the class back in and resume serving deltas against the versions
// clients already hold. Grouping state is not included — a class key plus
// its (version → bytes) map is sufficient for delta correctness; the
// engine keeps grouping in one record of its own under GroupingKey.
type ClassRecord struct {
	Key             string
	DistVersion     int
	SelectorVersion int
	SelectorTag     string
	SelectorBase    []byte
	Bases           []VersionedBlob // ascending Version
	Candidates      []TaggedDoc
	Refs            []TaggedDoc
	Edges           []EdgeBlob // version-graph edges between retained bases
}

// MemoryBytes reports the payload bytes the record would re-charge to the
// Accountant on fault-in (bases + selector base + samples).
func (r *ClassRecord) MemoryBytes() int64 {
	n := int64(len(r.SelectorBase))
	for _, b := range r.Bases {
		n += int64(len(b.Bytes))
	}
	for _, c := range r.Candidates {
		n += int64(len(c.Bytes))
	}
	for _, c := range r.Refs {
		n += int64(len(c.Bytes))
	}
	for _, e := range r.Edges {
		n += int64(len(e.Payload))
	}
	return n
}

const (
	bodyRaw  = 0
	bodyGzip = 1

	// spillGzipMin is the smallest body worth attempting to compress;
	// below this the gzip header alone erases any win.
	spillGzipMin = 64

	// maxSpillSection bounds every decoded count and length so a corrupt
	// or adversarial record cannot drive huge allocations.
	maxSpillSection = 1 << 30
)

var errCorruptRecord = errors.New("store: corrupt spill record")

// scratch is a pooled byte buffer shared by the blob encoder (record
// assembly and gzip staging) and the tier's record reader.
type scratch struct{ buf []byte }

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

// appendBody encodes one body section, compressing through the pooled
// gzipx writer when that wins. Spill appends run on the request that
// triggered the eviction, so bodies compress at BestSpeed: on personalized
// ~38 KB pages, a quarter to a third of BestCompression's time for
// records about 15% larger.
func appendBody(dst []byte, data []byte) []byte {
	if len(data) >= spillGzipMin {
		st := getScratch()
		st.buf = gzipx.AppendCompressFast(st.buf[:0], data)
		if len(st.buf) < len(data) {
			dst = append(dst, bodyGzip)
			dst = binary.AppendUvarint(dst, uint64(len(data)))
			dst = binary.AppendUvarint(dst, uint64(len(st.buf)))
			dst = append(dst, st.buf...)
			putScratch(st)
			return dst
		}
		putScratch(st)
	}
	dst = append(dst, bodyRaw)
	dst = binary.AppendUvarint(dst, uint64(len(data)))
	return append(dst, data...)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendRecordPayload serializes rec into dst and returns the extended
// slice. Bases are sorted in place; versions must be non-negative and
// distinct.
func appendRecordPayload(dst []byte, rec *ClassRecord) ([]byte, error) {
	if rec.Key == "" {
		return dst, errors.New("store: spill record without key")
	}
	if rec.DistVersion < 0 || rec.SelectorVersion < 0 {
		return dst, errors.New("store: negative version in spill record")
	}
	sort.Slice(rec.Bases, func(i, j int) bool { return rec.Bases[i].Version < rec.Bases[j].Version })
	dst = appendString(dst, rec.Key)
	dst = binary.AppendUvarint(dst, uint64(rec.DistVersion))
	dst = binary.AppendUvarint(dst, uint64(rec.SelectorVersion))
	dst = appendString(dst, rec.SelectorTag)
	dst = appendBody(dst, rec.SelectorBase)
	dst = binary.AppendUvarint(dst, uint64(len(rec.Bases)))
	prev := 0
	for i, b := range rec.Bases {
		if b.Version < 0 || (i > 0 && b.Version <= prev) {
			return dst, fmt.Errorf("store: spill record base versions not strictly ascending (%d after %d)", b.Version, prev)
		}
		dst = binary.AppendUvarint(dst, uint64(b.Version-prev))
		prev = b.Version
		dst = appendBody(dst, b.Bytes)
	}
	for _, docs := range [][]TaggedDoc{rec.Candidates, rec.Refs} {
		dst = binary.AppendUvarint(dst, uint64(len(docs)))
		for _, d := range docs {
			dst = appendString(dst, d.Tag)
			dst = appendBody(dst, d.Bytes)
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(rec.Edges)))
	for _, e := range rec.Edges {
		if e.From < 0 || e.To < 0 || e.RawLen < 0 {
			return dst, errors.New("store: negative edge field in spill record")
		}
		dst = binary.AppendUvarint(dst, uint64(e.From))
		dst = binary.AppendUvarint(dst, uint64(e.To))
		flag := byte(bodyRaw)
		if e.Gzipped {
			flag = bodyGzip
		}
		dst = append(dst, flag)
		dst = binary.AppendUvarint(dst, uint64(e.RawLen))
		dst = binary.AppendUvarint(dst, uint64(len(e.Payload)))
		dst = append(dst, e.Payload...)
	}
	return dst, nil
}

// cursor walks a decoded payload with latched bounds checking: after any
// failed read ok() is false and every further read returns zero values.
type cursor struct {
	b   []byte
	off int
	bad bool
}

func (c *cursor) fail() { c.bad = true }

func (c *cursor) uvarint() uint64 {
	if c.bad {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.fail()
		return 0
	}
	c.off += n
	return v
}

// length reads a uvarint and validates it as an allocation-safe length
// bounded by the bytes actually remaining.
func (c *cursor) length() int {
	v := c.uvarint()
	if c.bad {
		return 0
	}
	if v > maxSpillSection || v > uint64(len(c.b)-c.off) {
		c.fail()
		return 0
	}
	return int(v)
}

// take returns the next n bytes as a subslice of the underlying buffer.
func (c *cursor) take(n int) []byte {
	if c.bad || n < 0 || n > len(c.b)-c.off {
		c.fail()
		return nil
	}
	b := c.b[c.off : c.off+n]
	c.off += n
	return b
}

func (c *cursor) str() string { return string(c.take(c.length())) }

func (c *cursor) byte() byte {
	b := c.take(1)
	if c.bad {
		return 0
	}
	return b[0]
}

// body decodes one body section into freshly owned bytes (the cursor's
// buffer is pooled and reused).
func (c *cursor) body() []byte {
	flag := c.byte()
	rawLen := c.uvarint()
	if c.bad || rawLen > maxSpillSection {
		c.fail()
		return nil
	}
	switch flag {
	case bodyRaw:
		stored := c.take(int(rawLen))
		if c.bad {
			return nil
		}
		if rawLen == 0 {
			return nil
		}
		out := make([]byte, rawLen)
		copy(out, stored)
		return out
	case bodyGzip:
		stored := c.take(c.length())
		if c.bad {
			return nil
		}
		out, err := gzipx.Decompress(stored)
		if err != nil || uint64(len(out)) != rawLen {
			c.fail()
			return nil
		}
		return out
	default:
		c.fail()
		return nil
	}
}

// decodeRecordPayload parses one record payload. The input buffer may be
// pooled: all returned byte slices are freshly allocated.
func decodeRecordPayload(data []byte) (ClassRecord, error) {
	c := &cursor{b: data}
	var rec ClassRecord
	rec.Key = c.str()
	rec.DistVersion = int(c.uvarint())
	rec.SelectorVersion = int(c.uvarint())
	rec.SelectorTag = c.str()
	rec.SelectorBase = c.body()
	nBases := c.length()
	prev := 0
	for i := 0; i < nBases && !c.bad; i++ {
		d := c.uvarint()
		if d > maxSpillSection || (i > 0 && d == 0) {
			c.fail()
			break
		}
		prev += int(d)
		rec.Bases = append(rec.Bases, VersionedBlob{Version: prev, Bytes: c.body()})
	}
	for _, dst := range []*[]TaggedDoc{&rec.Candidates, &rec.Refs} {
		n := c.length()
		for i := 0; i < n && !c.bad; i++ {
			*dst = append(*dst, TaggedDoc{Tag: c.str(), Bytes: c.body()})
		}
	}
	nEdges := c.length()
	for i := 0; i < nEdges && !c.bad; i++ {
		var e EdgeBlob
		e.From = int(c.uvarint())
		e.To = int(c.uvarint())
		switch c.byte() {
		case bodyRaw:
		case bodyGzip:
			e.Gzipped = true
		default:
			c.fail()
		}
		rawLen := c.uvarint()
		if rawLen > maxSpillSection {
			c.fail()
		}
		e.RawLen = int(rawLen)
		stored := c.take(c.length())
		if c.bad {
			break
		}
		if len(stored) > 0 {
			e.Payload = make([]byte, len(stored))
			copy(e.Payload, stored)
		}
		rec.Edges = append(rec.Edges, e)
	}
	if c.bad || rec.Key == "" || c.off != len(data) {
		return ClassRecord{}, errCorruptRecord
	}
	return rec, nil
}
