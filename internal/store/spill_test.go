package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testRecord(key string, ver int) ClassRecord {
	base := bytes.Repeat([]byte("base-"+key+" "), 40)
	return ClassRecord{
		Key:             key,
		DistVersion:     ver,
		SelectorVersion: ver,
		SelectorTag:     "tag-" + key,
		SelectorBase:    base,
		Bases: []VersionedBlob{
			{Version: ver - 1, Bytes: bytes.Repeat([]byte("old "), 30)},
			{Version: ver, Bytes: base},
		},
		Candidates: []TaggedDoc{{Tag: "c1", Bytes: []byte("candidate one body")}},
		Refs:       []TaggedDoc{{Tag: "r1", Bytes: bytes.Repeat([]byte("ref "), 25)}},
		Edges: []EdgeBlob{
			{From: ver - 1, To: ver, Payload: []byte("edge-delta-" + key), Gzipped: true, RawLen: 64},
		},
	}
}

func recordsEqual(t *testing.T, got, want ClassRecord) {
	t.Helper()
	if got.Key != want.Key || got.DistVersion != want.DistVersion ||
		got.SelectorVersion != want.SelectorVersion || got.SelectorTag != want.SelectorTag {
		t.Fatalf("header mismatch: got %+v want %+v", got, want)
	}
	if !bytes.Equal(got.SelectorBase, want.SelectorBase) {
		t.Fatalf("selector base mismatch")
	}
	if len(got.Bases) != len(want.Bases) {
		t.Fatalf("got %d bases, want %d", len(got.Bases), len(want.Bases))
	}
	for i := range want.Bases {
		if got.Bases[i].Version != want.Bases[i].Version || !bytes.Equal(got.Bases[i].Bytes, want.Bases[i].Bytes) {
			t.Fatalf("base %d mismatch", i)
		}
	}
	for name, pair := range map[string][2][]TaggedDoc{
		"candidates": {got.Candidates, want.Candidates},
		"refs":       {got.Refs, want.Refs},
	} {
		g, w := pair[0], pair[1]
		if len(g) != len(w) {
			t.Fatalf("%s: got %d docs, want %d", name, len(g), len(w))
		}
		for i := range w {
			if g[i].Tag != w[i].Tag || !bytes.Equal(g[i].Bytes, w[i].Bytes) {
				t.Fatalf("%s %d mismatch", name, i)
			}
		}
	}
	if len(got.Edges) != len(want.Edges) {
		t.Fatalf("got %d edges, want %d", len(got.Edges), len(want.Edges))
	}
	for i := range want.Edges {
		g, w := got.Edges[i], want.Edges[i]
		if g.From != w.From || g.To != w.To || g.Gzipped != w.Gzipped || g.RawLen != w.RawLen || !bytes.Equal(g.Payload, w.Payload) {
			t.Fatalf("edge %d mismatch: got %+v want %+v", i, g, w)
		}
	}
}

func TestBlobRoundTrip(t *testing.T) {
	want := testRecord("www.shop.com/laptops#1", 7)
	// Include an incompressible body so both raw and gzip paths execute.
	junk := make([]byte, 300)
	x := uint64(42)
	for i := range junk {
		x = x*2862933555777941757 + 3037000493
		junk[i] = byte(x >> 56)
	}
	want.Candidates = append(want.Candidates, TaggedDoc{Tag: "rand", Bytes: junk})

	payload, err := appendRecordPayload(nil, &want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRecordPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	recordsEqual(t, got, want)
	if want.MemoryBytes() != got.MemoryBytes() {
		t.Fatalf("memory bytes changed across round trip: %d != %d", want.MemoryBytes(), got.MemoryBytes())
	}
}

func TestBlobRejectsBadRecords(t *testing.T) {
	if _, err := appendRecordPayload(nil, &ClassRecord{}); err == nil {
		t.Fatal("expected error for record without key")
	}
	dup := ClassRecord{Key: "k", Bases: []VersionedBlob{{Version: 3}, {Version: 3}}}
	if _, err := appendRecordPayload(nil, &dup); err == nil {
		t.Fatal("expected error for duplicate base versions")
	}
	// Truncations of a valid payload must error, never panic.
	payload, err := appendRecordPayload(nil, &ClassRecord{Key: "k", SelectorVersion: 2, SelectorBase: []byte("hello world")})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(payload); n++ {
		if _, err := decodeRecordPayload(payload[:n]); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", n)
		}
	}
}

func openTestTier(t *testing.T, dir string, cfg TierConfig) *Tier {
	t.Helper()
	cfg.Dir = dir
	tier, err := OpenTier(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tier.Close() })
	return tier
}

func TestTierAppendTakeRecover(t *testing.T) {
	dir := t.TempDir()
	tier := openTestTier(t, dir, TierConfig{})
	recs := make([]ClassRecord, 5)
	for i := range recs {
		recs[i] = testRecord(fmt.Sprintf("class#%d", i), i+2)
		if err := tier.Append(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ { // Get leaves the record indexed
		if got, ok := tier.Get("class#3"); !ok {
			t.Fatal("Get(class#3) missed")
		} else {
			recordsEqual(t, got, recs[3])
		}
	}
	if got, ok := tier.Take("class#3"); !ok {
		t.Fatal("Take(class#3) missed")
	} else {
		recordsEqual(t, got, recs[3])
	}
	if _, ok := tier.Take("class#3"); ok {
		t.Fatal("second Take of the same key must miss: the index entry is consumed")
	}
	tier.Close()

	// Reopen: the index is rebuilt from segment headers alone.
	tier2 := openTestTier(t, dir, TierConfig{})
	if tier2.Len() != 5 {
		t.Fatalf("recovered %d classes, want 5 (taken entries reappear until overwritten)", tier2.Len())
	}
	got, ok := tier2.Take("class#1")
	if !ok {
		t.Fatal("recovered tier missed class#1")
	}
	recordsEqual(t, got, recs[1])
	st := tier2.Stats()
	if !st.Enabled || st.Segments == 0 || st.DiskBytes == 0 {
		t.Fatalf("implausible recovered stats: %+v", st)
	}
}

func TestTierLatestRecordWins(t *testing.T) {
	dir := t.TempDir()
	tier := openTestTier(t, dir, TierConfig{})
	old := testRecord("class#1", 2)
	newer := testRecord("class#1", 9)
	if err := tier.Append(old); err != nil {
		t.Fatal(err)
	}
	if err := tier.Append(newer); err != nil {
		t.Fatal(err)
	}
	if tier.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tier.Len())
	}
	got, ok := tier.Take("class#1")
	if !ok {
		t.Fatal("Take missed")
	}
	recordsEqual(t, got, newer)
	tier.Close()

	tier2 := openTestTier(t, dir, TierConfig{})
	got, ok = tier2.Take("class#1")
	if !ok {
		t.Fatal("recovered Take missed")
	}
	recordsEqual(t, got, newer)
}

// segmentFiles returns the tier's on-disk segment paths, oldest first.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "spill-") && strings.HasSuffix(e.Name(), ".seg") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

func TestTierTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	tier := openTestTier(t, dir, TierConfig{})
	a, b := testRecord("class#a", 3), testRecord("class#b", 4)
	if err := tier.Append(a); err != nil {
		t.Fatal(err)
	}
	sizeAfterA := tier.Stats().DiskBytes
	if err := tier.Append(b); err != nil {
		t.Fatal(err)
	}
	tier.Close()

	// Simulate a crash mid-spill: chop bytes off the second record.
	files := segmentFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("expected 1 segment, found %v", files)
	}
	fi, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[0], fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	tier2 := openTestTier(t, dir, TierConfig{})
	if tier2.Contains("class#b") {
		t.Fatal("torn record survived recovery")
	}
	got, ok := tier2.Get("class#a")
	if !ok {
		t.Fatal("intact record before the tear must survive")
	}
	recordsEqual(t, got, a)
	if st := tier2.Stats(); st.DiskBytes != sizeAfterA {
		t.Fatalf("logical size = %d, want %d (scan must stop at the tear)", st.DiskBytes, sizeAfterA)
	}

	// New appends after recovery go to a fresh segment, never after garbage.
	if err := tier2.Append(b); err != nil {
		t.Fatal(err)
	}
	if files = segmentFiles(t, dir); len(files) != 2 {
		t.Fatalf("append after torn recovery reused the torn segment: %v", files)
	}
	if got, ok := tier2.Take("class#b"); !ok {
		t.Fatal("re-spilled record missed")
	} else {
		recordsEqual(t, got, b)
	}
}

func TestTierCorruptRecordDegrades(t *testing.T) {
	dir := t.TempDir()
	tier := openTestTier(t, dir, TierConfig{})
	if err := tier.Append(testRecord("class#x", 5)); err != nil {
		t.Fatal(err)
	}
	tier.Close()

	// Flip a byte inside the payload: framing is intact, CRC is not.
	files := segmentFiles(t, dir)
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-10] ^= 0xFF
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	tier2 := openTestTier(t, dir, TierConfig{})
	if !tier2.Contains("class#x") {
		t.Fatal("header scan should still index the record (CRC is checked lazily)")
	}
	if _, ok := tier2.Take("class#x"); ok {
		t.Fatal("corrupt record must fail Take")
	}
	if st := tier2.Stats(); st.Errors == 0 {
		t.Fatal("corruption must be counted")
	}
	if tier2.Contains("class#x") {
		t.Fatal("corrupt record must be removed from the index")
	}
}

func TestTierDiskBudgetCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every append; a small budget forces
	// oldest-first deletion.
	tier := openTestTier(t, dir, TierConfig{SegmentBytes: 1, MaxBytes: 4096})
	var recSize int64
	for i := 0; i < 40; i++ {
		if err := tier.Append(testRecord(fmt.Sprintf("class#%d", i), i+1)); err != nil {
			t.Fatal(err)
		}
		if recSize == 0 {
			recSize = tier.Stats().DiskBytes
		}
	}
	st := tier.Stats()
	if st.DiskBytes > 4096+recSize {
		t.Fatalf("disk bytes %d exceed budget %d by more than one record (%d)", st.DiskBytes, 4096, recSize)
	}
	if st.Drops == 0 {
		t.Fatal("compaction must count dropped classes")
	}
	if tier.Contains("class#0") {
		t.Fatal("oldest class must have been dropped")
	}
	if !tier.Contains("class#39") {
		t.Fatal("newest class must survive compaction")
	}
	if st.SpilledClasses+int(st.Drops) != 40 {
		t.Fatalf("index (%d) + drops (%d) != 40 appends", st.SpilledClasses, st.Drops)
	}
}

// TestTierReclaimsDeadSegments: without a disk budget, evict → fault-in
// cycles must not leave fully dead segments behind, and reclaiming them is
// not a drop — no class lost anything.
func TestTierReclaimsDeadSegments(t *testing.T) {
	dir := t.TempDir()
	tier := openTestTier(t, dir, TierConfig{SegmentBytes: 1}) // rotate every append
	for i := 0; i < 20; i++ {
		rec := testRecord("class#1", i+2)
		if err := tier.Append(rec); err != nil {
			t.Fatal(err)
		}
		got, ok := tier.Take("class#1")
		if !ok {
			t.Fatalf("cycle %d: Take missed", i)
		}
		recordsEqual(t, got, rec)
	}
	if files := segmentFiles(t, dir); len(files) > 2 {
		t.Fatalf("%d segment files after 20 append/take cycles, want <= 2: %v", len(files), files)
	}
	if st := tier.Stats(); st.Drops != 0 || st.Segments > 2 {
		t.Fatalf("dead-segment reclamation counted as drops or skipped: %+v", st)
	}

	// Superseded records die the same way: re-appending one key (what a
	// recurring checkpoint does) keeps exactly the newest record on disk.
	for i := 0; i < 20; i++ {
		if err := tier.Append(testRecord("class#2", i+2)); err != nil {
			t.Fatal(err)
		}
	}
	st := tier.Stats()
	if st.Drops != 0 || st.Segments > 2 || st.DiskBytes != st.LiveBytes {
		t.Fatalf("superseded records not reclaimed: %+v", st)
	}
	if got, ok := tier.Get("class#2"); !ok || got.SelectorVersion != 21 {
		t.Fatalf("newest record lost to reclamation: ok=%v version=%d", ok, got.SelectorVersion)
	}
}

// TestTierGroupingKeyIsNotAClass: the reserved grouping record is stored
// and superseded like any other but never counted as a class.
func TestTierGroupingKeyIsNotAClass(t *testing.T) {
	dir := t.TempDir()
	tier := openTestTier(t, dir, TierConfig{})
	if err := tier.Append(testRecord("class#1", 3)); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{"old grouping", "new grouping"} {
		if err := tier.Append(ClassRecord{Key: GroupingKey, SelectorBase: []byte(body)}); err != nil {
			t.Fatal(err)
		}
	}
	tier.Close()

	tier2 := openTestTier(t, dir, TierConfig{})
	if n, st := tier2.Len(), tier2.Stats(); n != 1 || st.SpilledClasses != 1 {
		t.Fatalf("Len = %d, SpilledClasses = %d, want 1 and 1", n, st.SpilledClasses)
	}
	rec, ok := tier2.Get(GroupingKey)
	if !ok || string(rec.SelectorBase) != "new grouping" {
		t.Fatalf("recovered grouping record = %q, ok=%v", rec.SelectorBase, ok)
	}
}

// A spill directory written by a build with the previous magic is ignored,
// not an error: its graph edges are deltas this build's codec refuses, so its
// classes re-warm from traffic like evictions, and the dead segment goes on
// the first append.
func TestTierIgnoresOlderMagic(t *testing.T) {
	dir := t.TempDir()
	tier := openTestTier(t, dir, TierConfig{})
	if err := tier.Append(testRecord("class#a", 3)); err != nil {
		t.Fatal(err)
	}
	if err := tier.Append(testRecord("class#b", 4)); err != nil {
		t.Fatal(err)
	}
	tier.Close()
	files := segmentFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("expected 1 segment, found %v", files)
	}
	seg, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	old := bytes.ReplaceAll(seg, []byte(spillMagic), []byte("CBS2"))
	if bytes.Equal(old, seg) {
		t.Fatal("segment does not carry the current magic")
	}
	if err := os.WriteFile(files[0], old, 0o644); err != nil {
		t.Fatal(err)
	}

	tier2, err := OpenTier(TierConfig{Dir: dir})
	if err != nil {
		t.Fatalf("a CBS2 directory must open as empty, got %v", err)
	}
	defer tier2.Close()
	st := tier2.Stats()
	if tier2.Len() != 0 || st.DiskBytes != 0 || st.Errors != 0 || st.SkippedSegments != 1 {
		t.Fatalf("after opening a CBS2 segment: len %d, %+v", tier2.Len(), st)
	}
	if _, ok := tier2.Get("class#a"); ok {
		t.Fatal("a record under the old magic was served")
	}
	c := testRecord("class#c", 5)
	if err := tier2.Append(c); err != nil {
		t.Fatal(err)
	}
	if got := segmentFiles(t, dir); len(got) != 1 || got[0] == files[0] {
		t.Fatalf("old segment not reclaimed by the first append: %v", got)
	}
	got, ok := tier2.Get("class#c")
	if !ok || tier2.Stats().SkippedSegments != 0 {
		t.Fatalf("fresh record unreadable or skipped count stuck: ok=%v %+v", ok, tier2.Stats())
	}
	recordsEqual(t, got, c)
}
