package core

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"sort"
	"testing"

	"cbde/internal/anonymize"
	"cbde/internal/store"
)

// checkpointAndReopen is the restart every test here performs: checkpoint
// a, close it, and boot a fresh engine with the same config on the same
// spill dir.
func checkpointAndReopen(t *testing.T, a *Engine, cfg Config) *Engine {
	t.Helper()
	if _, err := a.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	b := newTestEngine(t, cfg)
	t.Cleanup(func() { b.Close() })
	return b
}

// TestSaveLoadRoundTrip: the record a restart reads back is the record the
// class held in memory, byte for byte — including what the NDJSON snapshot
// never carried, version-graph edges and the selector's samples — so a
// client lagging several versions is served a delta by the new process.
func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	a := graphEngine(t, 4, Config{SpillDir: dir})
	classID, latest := driveGenerations(t, a, 5)
	oldest := latest
	for v := latest; v >= 1; v-- {
		if _, ok := a.BaseFile(classID, v); ok {
			oldest = v
		}
	}
	oldBase, _ := a.BaseFile(classID, oldest)
	a.Quiesce()
	cs, _ := a.lookup(classID)
	cs.mu.RLock()
	want := *cs.spillRecordLocked()
	cs.mu.RUnlock()
	if len(want.Edges) == 0 || len(want.Candidates) == 0 || oldest == latest {
		t.Fatalf("warm-up left nothing to lose: %d edges, %d samples, versions %d..%d",
			len(want.Edges), len(want.Candidates), oldest, latest)
	}
	if n, err := a.Checkpoint(); err != nil || n != 1 {
		t.Fatalf("Checkpoint = (%d, %v), want (1, nil)", n, err)
	}
	a.Close()

	b := graphEngine(t, 4, Config{SpillDir: dir})
	defer b.Close()
	got, ok := b.spill.Get(classID)
	for _, rec := range []*store.ClassRecord{&want, &got} { // both come out of maps
		sort.Slice(rec.Bases, func(i, j int) bool { return rec.Bases[i].Version < rec.Bases[j].Version })
		sort.Slice(rec.Edges, func(i, j int) bool { return rec.Edges[i].From < rec.Edges[j].From })
	}
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("record changed across checkpoint + restart (found: %v)", ok)
	}

	doc := docGen(5)
	resp, err := b.Process(Request{
		URL: "www.shop.com/graph/1", UserID: "u", Doc: doc,
		HaveClassID: classID, HaveVersion: oldest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindDelta || resp.ClassID != classID {
		t.Fatalf("lagging client after restart: class=%q kind=%v, want a delta from %q", resp.ClassID, resp.Kind, classID)
	}
	if got, err := b.DecodeAs(oldBase, resp.Payload, resp.Gzipped, resp.Format); err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("lagging client's reconstruction failed: %v", err)
	}
	// The restored base-file endpoint serves the same bytes.
	if rbase, ok := b.BaseFile(classID, oldest); !ok || !bytes.Equal(rbase, oldBase) {
		t.Error("restored BaseFile differs from the checkpointed one")
	}
	if st, _ := b.ClassStats(classID); st.GraphEdges != len(want.Edges) {
		t.Errorf("edges after restart = %d, want %d", st.GraphEdges, len(want.Edges))
	}
}

func TestCheckpointVersionNumberingContinues(t *testing.T) {
	cfg := Config{
		DisableAnonymization: true,
		MaxDeltaRatio:        0.2,
		Now:                  newTestClock().Now,
		SpillDir:             t.TempDir(),
	}
	a := newTestEngine(t, cfg)
	// Drive to version >= 2 via basic rebases.
	var classID string
	have := 0
	for i := 0; i < 8; i++ {
		resp, err := a.Process(Request{
			URL: "www.shop.com/p/1", UserID: "u", Doc: incompressible(uint64(i/4)+1, 4000),
			HaveClassID: classID, HaveVersion: have,
		})
		if err != nil {
			t.Fatal(err)
		}
		classID = resp.ClassID
		if resp.LatestVersion > have {
			have = resp.LatestVersion
		}
	}
	if have < 2 {
		t.Fatalf("want version >= 2, got %d", have)
	}

	b := checkpointAndReopen(t, a, cfg)
	// A drastic content change triggers another basic rebase: the new
	// version must continue numbering past the persisted one, not restart
	// at 1 (which would corrupt clients' version bookkeeping).
	resp, err := b.Process(Request{
		URL: "www.shop.com/p/1", UserID: "u", Doc: incompressible(999, 4000),
		HaveClassID: classID, HaveVersion: have,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.BasicRebase {
		t.Fatal("expected a basic rebase after restart")
	}
	if resp.LatestVersion <= have {
		t.Errorf("post-restart version %d did not advance past %d", resp.LatestVersion, have)
	}
}

func TestSaveLoadPreservesGroupingKnowledge(t *testing.T) {
	cfg := Config{Anon: anonymize.Config{M: 1, N: 2}, SpillDir: t.TempDir()}
	a := newTestEngine(t, cfg)
	warmClass(t, a, "laptops", 6)
	gsA, _ := a.GroupingStats()

	b := checkpointAndReopen(t, a, cfg)
	gsB, _ := b.GroupingStats()
	if gsB.Classes != gsA.Classes || gsB.URLs != gsA.URLs {
		t.Errorf("grouping state lost: %+v vs %+v", gsB, gsA)
	}

	// A known URL must not probe again after restart.
	doc := renderDoc("laptops", 0, 5, "u")
	resp, err := b.Process(Request{URL: "www.shop.com/laptops/0", UserID: "u", Doc: doc})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ClassID == "" {
		t.Error("restarted engine failed to classify a known URL")
	}
	gsAfter, _ := b.GroupingStats()
	if gsAfter.URLs != gsB.URLs {
		t.Errorf("known URL was re-grouped: %d -> %d URLs", gsB.URLs, gsAfter.URLs)
	}
}

// TestSaveLoadUnderEviction is the eviction round trip. A class evicted
// into the tier is skipped by the checkpoint (its record is the truth) and
// serves its pre-eviction clients deltas after the restart. A class that
// was stripped but whose spill append failed has no bytes left anywhere;
// the checkpoint writes its version counter alone, so after the restart a
// client holding a pre-eviction base gets a full response and the class
// re-warms at a strictly newer version — no number is ever re-minted for
// different bytes.
func TestSaveLoadUnderEviction(t *testing.T) {
	dir := t.TempDir()
	a := spillEngine(t, dir, 0)
	spilledID, spilledVer, spilledBase := warmHeld(t, a, "www.shop.com/laptops/1", renderDoc("laptops", 1, 0, "u1"))
	lostID, lostVer, _ := warmHeld(t, a, "www.shop.com/desktops/2", renderDoc("desktops", 2, 0, "u1"))
	warmHeld(t, a, "www.shop.com/phones/3", renderDoc("phones", 3, 0, "u1"))

	// No segment is open yet, so with the directory gone the first append
	// fails: the class is stripped, not flagged, and nothing is on disk.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.EvictClass(lostID); !ok {
		t.Fatal("evict failed")
	}
	if st, _ := a.ClassStats(lostID); !st.Evicted || st.Spilled || st.ResidentBytes != 0 {
		t.Fatalf("failed spill must leave a plainly evicted class: %+v", st)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, ok := a.EvictClass(spilledID); !ok {
		t.Fatal("evict failed")
	}

	// Two records: the resident class and the counter-only one.
	if n, err := a.Checkpoint(); err != nil || n != 2 {
		t.Fatalf("Checkpoint = (%d, %v), want (2, nil)", n, err)
	}
	a.Close()
	b := spillEngine(t, dir, 0)
	if ts := b.SpillStats(); ts.SpilledClasses != 3 {
		t.Fatalf("recovered %d classes, want 3", ts.SpilledClasses)
	}

	doc := renderDoc("laptops", 1, 9, "u1")
	resp, err := b.Process(Request{
		URL: "www.shop.com/laptops/1", UserID: "u1", Doc: doc,
		HaveClassID: spilledID, HaveVersion: spilledVer,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindDelta || resp.BaseVersion != spilledVer {
		t.Fatalf("spilled class after restart: kind=%v baseVersion=%d, want delta against %d", resp.Kind, resp.BaseVersion, spilledVer)
	}
	if got, err := b.DecodeAs(spilledBase, resp.Payload, resp.Gzipped, resp.Format); err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("spilled class reconstruction failed: %v", err)
	}

	rewarmed := false
	for j := 0; j < 30 && !rewarmed; j++ {
		resp, err := b.Process(Request{
			URL:         "www.shop.com/desktops/2",
			UserID:      "returning",
			Doc:         renderDoc("desktops", 2, 200+j, "returning"),
			HaveClassID: lostID,
			HaveVersion: lostVer,
		})
		if err != nil {
			t.Fatal(err)
		}
		if j == 0 && resp.Kind != KindFull {
			t.Fatalf("first post-restart response is %v, want full", resp.Kind)
		}
		if resp.LatestVersion != 0 && resp.LatestVersion <= lostVer {
			t.Fatalf("post-restart version %d does not exceed pre-eviction version %d (version reuse)",
				resp.LatestVersion, lostVer)
		}
		if resp.LatestVersion > lostVer {
			if _, ok := b.BaseFile(lostID, resp.LatestVersion); ok {
				rewarmed = true
			}
		}
	}
	if !rewarmed {
		t.Fatal("stripped class never re-warmed after the restart")
	}
}

// TestCheckpointCrashRecovery: a checkpoint leaves a serving engine alone,
// and then the engine dies before the next one — no Close, no final
// checkpoint, a torn record at the end of the last segment. The reopened engine has every class up to its last intact
// record plus the grouping record, and every class serves a byte-exact
// delta to a client holding its checkpointed version.
func TestCheckpointCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{SpillDir: dir, DisableAnonymization: true, MaxDeltaRatio: 0.2}
	a := newTestEngine(t, cfg)
	t.Cleanup(func() { a.Close() })
	type held struct {
		url, classID string
		seed         uint64
		version      int
		base         []byte
	}
	var classes []held
	for i, dept := range []string{"alpha", "beta", "gamma"} {
		// Distinct shared templates with a short per-request tail: classes
		// stay apart and every request is a small delta.
		url, seed := fmt.Sprintf("www.shop.com/%s/%d", dept, i), uint64(i+1)
		id, v, base := warmHeld(t, a, url, crashDoc(seed, 0))
		classes = append(classes, held{url, id, seed, v, base})
	}
	for round := 0; round < 2; round++ { // the second supersedes the first
		if n, err := a.Checkpoint(); err != nil || n != 3 {
			t.Fatalf("Checkpoint = (%d, %v), want (3, nil)", n, err)
		}
	}

	// Keep serving. The checkpoint flagged nothing, so requests to every
	// class touch no disk: no fault-in, and no Take — the index keeps all
	// three records.
	for _, c := range classes {
		doc := crashDoc(c.seed, 1)
		resp, err := a.Process(Request{URL: c.url, UserID: "u1", Doc: doc, HaveClassID: c.classID, HaveVersion: c.version})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := a.DecodeAs(c.base, resp.Payload, resp.Gzipped, resp.Format); resp.Kind != KindDelta || err != nil || !bytes.Equal(got, doc) {
			t.Fatalf("%s after checkpoint: kind=%v, reconstruction error %v", c.url, resp.Kind, err)
		}
		if st, _ := a.ClassStats(c.classID); st.Spilled {
			t.Fatalf("checkpoint flagged live class %q", c.classID)
		}
	}
	if ts := a.SpillStats(); ts.SpilledClasses != 3 || ts.FaultIns != 0 || ts.Errors != 0 {
		t.Fatalf("requests after a checkpoint consumed tier records: %+v", ts)
	}
	// Then an install the checkpoint never saw, and an eviction whose
	// record supersedes the checkpointed one.
	resp, err := a.Process(Request{
		URL: classes[1].url, UserID: "u1", Doc: incompressible(77, 4000),
		HaveClassID: classes[1].classID, HaveVersion: classes[1].version,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.BasicRebase || resp.LatestVersion <= classes[1].version {
		t.Fatalf("wanted a post-checkpoint install, got %+v", resp)
	}
	if _, ok := a.EvictClass(classes[2].classID); !ok {
		t.Fatal("evict failed")
	}

	// Crash: a record torn mid-write ends the last segment.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no segments to tear: %v", err)
	}
	f, err := os.OpenFile(dir+"/"+entries[len(entries)-1].Name(), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("CBS3\xff\xff torn by the crash")); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b := newTestEngine(t, cfg)
	t.Cleanup(func() { b.Close() })
	if ts := b.SpillStats(); ts.SpilledClasses != 3 {
		t.Fatalf("recovered %d classes, want 3", ts.SpilledClasses)
	}
	if gs, _ := b.GroupingStats(); gs.Classes != 3 {
		t.Fatalf("recovered grouping knows %d classes, want 3", gs.Classes)
	}
	// Reverse order: only the grouping record maps these URLs back to the
	// sequence-numbered keys the class records are indexed under.
	for i := len(classes) - 1; i >= 0; i-- {
		c := classes[i]
		doc := crashDoc(c.seed, 5)
		resp, err := b.Process(Request{URL: c.url, UserID: "u1", Doc: doc, HaveClassID: c.classID, HaveVersion: c.version})
		if err != nil {
			t.Fatal(err)
		}
		if resp.ClassID != c.classID || resp.Kind != KindDelta || resp.BaseVersion != c.version {
			t.Fatalf("%s: class=%q kind=%v baseVersion=%d, want %q served a delta against %d",
				c.url, resp.ClassID, resp.Kind, resp.BaseVersion, c.classID, c.version)
		}
		if got, err := b.DecodeAs(c.base, resp.Payload, resp.Gzipped, resp.Format); err != nil || !bytes.Equal(got, doc) {
			t.Fatalf("%s: reconstruction against the checkpointed base failed: %v", c.url, err)
		}
	}
	if ts := b.SpillStats(); ts.FaultIns != 3 || ts.Errors != 0 {
		t.Fatalf("tier stats after crash recovery: %+v", ts)
	}
}

// crashDoc is a 4 KB per-class template plus a short per-tick tail.
func crashDoc(seed uint64, tick int) []byte {
	return append(incompressible(seed, 4000), fmt.Sprintf("<tick %d>", tick)...)
}
