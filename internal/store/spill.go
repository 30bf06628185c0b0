// Disk tier: the one way class state reaches disk. Evicted classes are
// demoted to append-only segment files instead of being dropped and
// faulted back in on demand; engine checkpoints append the current record
// of every resident class to the same segments.
//
// Layout: a spill directory holds numbered segment files
// (spill-00000001.seg, ...). Each record is framed as
//
//	magic "CBS4" | uvarint payloadLen | crc32(payload) LE | payload
//
// with the payload encoded by the blob codec (blob.go). An in-memory
// index maps key → (segment, offset, length) for O(1) lookup; the latest
// record appended for a key wins. Get reads a record and leaves it
// indexed; Take also removes the index entry so a faulted-in class can
// never be resurrected from a stale blob by a later eviction — the next
// eviction or checkpoint appends a fresh record.
//
// Recovery re-opens the directory, scans record headers (key only, the
// body is skipped with a buffered discard) and rebuilds the index without
// touching payload bytes; bodies are faulted lazily. A torn tail — e.g. a
// crash mid-spill — stops that segment's scan at the last intact record;
// the torn record's class simply degrades to full responses and re-warms
// from traffic, exactly like a plain eviction. So does every class of a
// segment written under another magic (an older build's "CBS3", whose graph
// edges are interleaved "VD02" deltas this build's codec rejects): the scan stops at its first
// record and the segment is deleted on the next append.
//
// Segments recovered from disk are sealed: appends always go to a fresh
// segment, so offsets indexed during a scan stay valid forever. A sealed
// segment that no index entry points into any more is deleted on the next
// append, so evict → fault-in cycles and recurring checkpoints do not
// accumulate dead bytes. When MaxBytes is set, oldest-first segment
// deletion additionally bounds the tier; classes whose only record lived
// in a dropped segment are counted as drops and degrade like plain
// evictions.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
)

// GroupingKey is the reserved key of the engine's grouping record (the
// classify manager's export, stored as the record's selector base). It is
// framed, indexed and superseded like any class record but is not a class:
// no class key starts with a NUL byte, and Len, SpilledClasses and Drops
// leave it out.
const GroupingKey = "\x00grouping"

const (
	spillMagic          = "CBS4"
	segmentPattern      = "spill-%08d.seg"
	defaultSegmentBytes = 4 << 20
	maxSpillPayload     = 1 << 30
)

// TierConfig configures the disk tier.
type TierConfig struct {
	// Dir is the spill directory; created if missing.
	Dir string
	// MaxBytes bounds total segment bytes on disk; 0 means unbounded.
	// Enforced by deleting oldest segments after each append.
	MaxBytes int64
	// SegmentBytes is the rotation threshold for the active segment.
	// Defaults to 4 MiB.
	SegmentBytes int64
}

// TierStats is the disk tier's observable state, embedded in the
// /_cbde/store snapshot.
type TierStats struct {
	Enabled         bool   `json:"enabled"`
	Dir             string `json:"dir,omitempty"`
	BudgetBytes     int64  `json:"budgetBytes"`
	DiskBytes       int64  `json:"diskBytes"`
	LiveBytes       int64  `json:"liveBytes"`
	Segments        int    `json:"segments"`
	SkippedSegments int    `json:"skippedSegments"` // no readable record: torn at the start, or another build's format
	SpilledClasses  int    `json:"spilledClasses"`
	Spills          int64  `json:"spills"`
	FaultIns        int64  `json:"faultIns"`
	Drops           int64  `json:"drops"`
	Errors          int64  `json:"errors"`
}

type segment struct {
	id    int
	path  string
	f     *os.File
	size  int64 // logical end: bytes covered by intact records
	live  int64 // bytes of records still referenced by the index
	liveN int   // index entries pointing here
}

type blobRef struct {
	seg *segment
	off int64
	n   int64
}

// Tier is the spill store. All methods are safe for concurrent use.
type Tier struct {
	cfg TierConfig

	mu     sync.Mutex
	segs   []*segment // ascending id; the active segment, when any, is last
	active *segment   // nil until the first Append after open or rotation
	idx    map[string]blobRef
	nextID int
	closed bool

	spills atomic.Int64 // successful Appends
	drops  atomic.Int64 // classes lost to budget compaction
	errs   atomic.Int64 // append/read/decode failures
}

// OpenTier opens (or creates) a spill directory and recovers its index by
// scanning segment headers. Payload bytes are not read.
func OpenTier(cfg TierConfig) (*Tier, error) {
	if cfg.Dir == "" {
		return nil, errors.New("store: spill tier requires a directory")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create spill dir: %w", err)
	}
	t := &Tier{cfg: cfg, idx: make(map[string]blobRef), nextID: 1}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	var ids []int
	for _, e := range entries {
		var id int
		if n, err := fmt.Sscanf(e.Name(), segmentPattern, &id); n == 1 && err == nil {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		seg := &segment{id: id, path: filepath.Join(cfg.Dir, fmt.Sprintf(segmentPattern, id))}
		f, err := os.Open(seg.path)
		if err != nil {
			return nil, fmt.Errorf("store: open segment: %w", err)
		}
		seg.f = f
		t.scanSegment(seg)
		t.segs = append(t.segs, seg)
		if id >= t.nextID {
			t.nextID = id + 1
		}
	}
	return t, nil
}

// countReader counts consumed bytes so the scan can index offsets while
// reading through bufio.
type countReader struct {
	r *bufio.Reader
	n int64
}

func (c *countReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	}
	return b, err
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// scanSegment rebuilds index entries from seg, reading only framing and
// the leading key of each payload. Any malformed or short record ends the
// scan: everything after a torn record is unreachable by construction
// (records are appended strictly in order).
func (t *Tier) scanSegment(seg *segment) {
	if _, err := seg.f.Seek(0, io.SeekStart); err != nil {
		return
	}
	cr := &countReader{r: bufio.NewReaderSize(seg.f, 64<<10)}
	var magic [4]byte
	var crcb [4]byte
	for {
		off := cr.n
		if _, err := io.ReadFull(cr, magic[:]); err != nil {
			break
		}
		if string(magic[:]) != spillMagic {
			break
		}
		payloadLen, err := binary.ReadUvarint(cr)
		if err != nil || payloadLen > maxSpillPayload {
			break
		}
		if _, err := io.ReadFull(cr, crcb[:]); err != nil {
			break
		}
		payloadStart := cr.n
		keyLen, err := binary.ReadUvarint(cr)
		if err != nil || keyLen == 0 || keyLen > payloadLen {
			break
		}
		keyb := make([]byte, keyLen)
		if _, err := io.ReadFull(cr, keyb); err != nil {
			break
		}
		rest := int64(payloadLen) - (cr.n - payloadStart)
		if rest < 0 {
			break
		}
		if _, err := io.CopyN(io.Discard, cr, rest); err != nil {
			break // torn tail: payload shorter than its declared length
		}
		key := string(keyb)
		if old, ok := t.idx[key]; ok {
			old.seg.live -= old.n
			old.seg.liveN--
		}
		ref := blobRef{seg: seg, off: off, n: cr.n - off}
		t.idx[key] = ref
		seg.live += ref.n
		seg.liveN++
		seg.size = cr.n
	}
}

// Append spills one class record, replacing any earlier record for the
// same key (the earlier bytes become dead weight until compaction).
func (t *Tier) Append(rec ClassRecord) error {
	enc := getScratch()
	defer putScratch(enc)
	payload, err := appendRecordPayload(enc.buf[:0], &rec)
	enc.buf = payload
	if err != nil {
		t.errs.Add(1)
		return err
	}

	out := getScratch()
	defer putScratch(out)
	b := append(out.buf[:0], spillMagic...)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(payload))
	b = append(b, payload...)
	out.buf = b

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return errors.New("store: spill tier closed")
	}
	if t.active == nil {
		seg := &segment{id: t.nextID, path: filepath.Join(t.cfg.Dir, fmt.Sprintf(segmentPattern, t.nextID))}
		f, err := os.OpenFile(seg.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			t.errs.Add(1)
			return fmt.Errorf("store: create segment: %w", err)
		}
		seg.f = f
		t.nextID++
		t.segs = append(t.segs, seg)
		t.active = seg
	}
	seg := t.active
	off := seg.size
	if _, err := seg.f.WriteAt(b, off); err != nil {
		// A short or failed write leaves a torn tail; truncate it away and
		// seal the segment so later appends cannot land after garbage.
		seg.f.Truncate(off)
		t.active = nil
		t.errs.Add(1)
		return fmt.Errorf("store: spill append: %w", err)
	}
	n := int64(len(b))
	if old, ok := t.idx[rec.Key]; ok {
		old.seg.live -= old.n
		old.seg.liveN--
	}
	seg.size += n
	seg.live += n
	seg.liveN++
	t.idx[rec.Key] = blobRef{seg: seg, off: off, n: n}
	t.spills.Add(1)
	if seg.size >= t.cfg.SegmentBytes {
		t.active = nil // sealed; the file stays open for reads
	}
	t.compactLocked(seg)
	return nil
}

// compactLocked deletes every sealed segment no index entry points into
// (budget or not — those bytes can never be read again), then oldest
// segments until the tier fits MaxBytes, never touching the segment that
// just received an append.
func (t *Tier) compactLocked(keep *segment) {
	for i := len(t.segs) - 1; i >= 0; i-- {
		if s := t.segs[i]; s.liveN == 0 && s != t.active {
			t.dropSegmentLocked(s)
		}
	}
	if t.cfg.MaxBytes <= 0 {
		return
	}
	for t.totalLocked() > t.cfg.MaxBytes && len(t.segs) > 0 && t.segs[0] != keep {
		t.dropSegmentLocked(t.segs[0])
	}
}

func (t *Tier) totalLocked() int64 {
	var n int64
	for _, s := range t.segs {
		n += s.size
	}
	return n
}

// dropSegmentLocked deletes seg and counts the classes whose record lived
// in it as drops.
func (t *Tier) dropSegmentLocked(seg *segment) {
	if seg.liveN > 0 {
		for key, ref := range t.idx {
			if ref.seg != seg {
				continue
			}
			delete(t.idx, key)
			if key != GroupingKey {
				t.drops.Add(1)
			}
		}
	}
	seg.f.Close()
	os.Remove(seg.path)
	if t.active == seg {
		t.active = nil
	}
	for i, s := range t.segs {
		if s == seg {
			t.segs = append(t.segs[:i], t.segs[i+1:]...)
			break
		}
	}
}

// Contains reports whether a spill record exists for key.
func (t *Tier) Contains(key string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.idx[key]
	return ok
}

// classesLocked is the number of indexed class records: every index entry
// but the grouping record.
func (t *Tier) classesLocked() int {
	n := len(t.idx)
	if _, ok := t.idx[GroupingKey]; ok {
		n--
	}
	return n
}

// Len reports the number of classes with a record currently indexed.
func (t *Tier) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.classesLocked()
}

// Get reads, verifies, and decodes the record for key, leaving it indexed.
// A missing key returns ok=false with no error; so does a corrupt record
// (bad CRC, truncated body), which is also counted as an error.
func (t *Tier) Get(key string) (ClassRecord, bool) { return t.read(key, false) }

// Take is Get plus removing the key from the index, whether or not the
// record decoded: after a corrupt read the caller degrades exactly as if
// the class had been plainly evicted.
func (t *Tier) Take(key string) (ClassRecord, bool) { return t.read(key, true) }

func (t *Tier) read(key string, drop bool) (ClassRecord, bool) {
	buf := getScratch()
	defer putScratch(buf)

	t.mu.Lock()
	ref, ok := t.idx[key]
	if !ok {
		t.mu.Unlock()
		return ClassRecord{}, false
	}
	if drop {
		delete(t.idx, key)
		ref.seg.live -= ref.n
		ref.seg.liveN--
	}
	if cap(buf.buf) < int(ref.n) {
		buf.buf = make([]byte, ref.n)
	}
	b := buf.buf[:ref.n]
	_, err := ref.seg.f.ReadAt(b, ref.off)
	t.mu.Unlock()

	var rec ClassRecord
	if err == nil {
		rec, err = decodeFrame(b)
	}
	if err != nil {
		t.errs.Add(1)
		return ClassRecord{}, false
	}
	return rec, true
}

// decodeFrame verifies one framed record (magic, length, CRC) and decodes
// its payload.
func decodeFrame(b []byte) (ClassRecord, error) {
	if len(b) < len(spillMagic) || string(b[:len(spillMagic)]) != spillMagic {
		return ClassRecord{}, errCorruptRecord
	}
	rest := b[len(spillMagic):]
	payloadLen, un := binary.Uvarint(rest)
	if un <= 0 {
		return ClassRecord{}, errCorruptRecord
	}
	rest = rest[un:]
	if len(rest) != 4+int(payloadLen) {
		return ClassRecord{}, errCorruptRecord
	}
	payload := rest[4:]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rest[:4]) {
		return ClassRecord{}, errCorruptRecord
	}
	return decodeRecordPayload(payload)
}

// Stats snapshots the tier. FaultIns is owned by the engine (a take only
// becomes a fault-in once the decoded record is actually installed) and
// is left zero here.
func (t *Tier) Stats() TierStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := TierStats{
		Enabled:        true,
		Dir:            t.cfg.Dir,
		BudgetBytes:    t.cfg.MaxBytes,
		Segments:       len(t.segs),
		SpilledClasses: t.classesLocked(),
		Spills:         t.spills.Load(),
		Drops:          t.drops.Load(),
		Errors:         t.errs.Load(),
	}
	for _, s := range t.segs {
		st.DiskBytes += s.size
		st.LiveBytes += s.live
		if s.size == 0 {
			st.SkippedSegments++
		}
	}
	return st
}

// Close closes all segment files. Further Appends fail; Get and Take
// return ok=false.
func (t *Tier) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	var first error
	for _, s := range t.segs {
		if err := s.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	t.active = nil
	return first
}
