package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cbde/internal/basefile"
)

// spillEngine builds an engine with the disk tier enabled, anonymization
// off (so bases install immediately), and an optional memory budget.
func spillEngine(t *testing.T, dir string, budget int64) *Engine {
	t.Helper()
	e := newTestEngine(t, Config{
		MemBudget:            budget,
		SpillDir:             dir,
		DisableAnonymization: true,
	})
	t.Cleanup(func() { e.Close() })
	return e
}

// warmHeld warms one class with a single document and returns the class
// ID, the distributable version, and the base bytes a client would hold.
func warmHeld(t *testing.T, e *Engine, url string, doc []byte) (string, int, []byte) {
	t.Helper()
	resp, err := e.Process(Request{URL: url, UserID: "u1", Doc: doc})
	if err != nil {
		t.Fatal(err)
	}
	if resp.LatestVersion == 0 {
		t.Fatal("warm request did not install a base")
	}
	base, ok := e.BaseFile(resp.ClassID, resp.LatestVersion)
	if !ok {
		t.Fatal("warm base not fetchable")
	}
	return resp.ClassID, resp.LatestVersion, base
}

func TestSpillFaultInServesDelta(t *testing.T) {
	e := spillEngine(t, t.TempDir(), 0)
	doc := renderDoc("alpha", 0, 0, "u1")
	classID, version, base := warmHeld(t, e, "www.shop.com/alpha/0", doc)

	// Sanity: a warm class serves a delta against the held base.
	doc2 := renderDoc("alpha", 0, 1, "u1")
	resp, err := e.Process(Request{
		URL: "www.shop.com/alpha/0", UserID: "u1", Doc: doc2,
		HaveClassID: classID, HaveVersion: version,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindDelta {
		t.Fatalf("warm response kind = %v, want delta", resp.Kind)
	}

	freed, ok := e.EvictClass(classID)
	if !ok || freed <= 0 {
		t.Fatalf("EvictClass freed %d, ok=%v", freed, ok)
	}
	st, _ := e.ClassStats(classID)
	if !st.Evicted || !st.Spilled {
		t.Fatalf("after evict: evicted=%v spilled=%v, want both true", st.Evicted, st.Spilled)
	}
	if ts := e.SpillStats(); !ts.Enabled || ts.Spills == 0 || ts.SpilledClasses != 1 {
		t.Fatalf("implausible tier stats after spill: %+v", ts)
	}

	// The very first request after the spill must fault in and serve a
	// byte-verified delta — not a full response.
	doc3 := renderDoc("alpha", 0, 2, "u1")
	resp, err = e.Process(Request{
		URL: "www.shop.com/alpha/0", UserID: "u1", Doc: doc3,
		HaveClassID: classID, HaveVersion: version,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindDelta {
		t.Fatalf("post-spill response kind = %v, want delta (fault-in must win the race with re-warming)", resp.Kind)
	}
	if resp.BaseVersion != version {
		t.Fatalf("delta against version %d, want the held %d", resp.BaseVersion, version)
	}
	got, err := e.DecodeAs(base, resp.Payload, resp.Gzipped, resp.Format)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, doc3) {
		t.Fatal("fault-in delta did not reconstruct the document byte-for-byte")
	}
	st, _ = e.ClassStats(classID)
	if st.Evicted || st.Spilled || st.FaultIns != 1 {
		t.Fatalf("after fault-in: evicted=%v spilled=%v faultIns=%d", st.Evicted, st.Spilled, st.FaultIns)
	}
	if ts := e.SpillStats(); ts.FaultIns != 1 || ts.SpilledClasses != 0 {
		t.Fatalf("tier stats after fault-in: %+v", ts)
	}
	if st.Rewarms != 0 {
		t.Fatalf("fault-in must not count as a re-warm, got %d", st.Rewarms)
	}
}

func TestSpillFlashCrowdFaultsInOnce(t *testing.T) {
	// Sampling off: a 16-user crowd would otherwise trigger group rebases
	// that push the held version past GraphDepth — legitimate full
	// responses that have nothing to do with the fault-in under test.
	e := newTestEngine(t, Config{
		SpillDir:             t.TempDir(),
		DisableAnonymization: true,
		Selector:             basefile.Config{SampleProb: -1},
	})
	t.Cleanup(func() { e.Close() })
	doc := renderDoc("beta", 1, 0, "u1")
	classID, version, base := warmHeld(t, e, "www.shop.com/beta/1", doc)
	if _, ok := e.EvictClass(classID); !ok {
		t.Fatal("evict failed")
	}

	const crowd = 16
	var wg sync.WaitGroup
	errs := make(chan error, crowd)
	for i := 0; i < crowd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			doc := renderDoc("beta", 1, 1, fmt.Sprintf("u%d", i))
			resp, err := e.Process(Request{
				URL: "www.shop.com/beta/1", UserID: fmt.Sprintf("u%d", i), Doc: doc,
				HaveClassID: classID, HaveVersion: version,
			})
			if err != nil {
				errs <- err
				return
			}
			if resp.Kind != KindDelta {
				errs <- fmt.Errorf("flash-crowd request %d got %v, want delta", i, resp.Kind)
				return
			}
			got, err := e.DecodeAs(base, resp.Payload, resp.Gzipped, resp.Format)
			if err == nil && !bytes.Equal(got, doc) {
				err = fmt.Errorf("request %d reconstruction mismatch", i)
			}
			if err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if ts := e.SpillStats(); ts.FaultIns != 1 {
		t.Fatalf("flash crowd performed %d fault-ins, want exactly 1 (singleflight)", ts.FaultIns)
	}
}

func TestSpillRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	e1 := spillEngine(t, dir, 0)
	doc := renderDoc("gamma", 2, 0, "u1")
	classID, version, base := warmHeld(t, e1, "www.shop.com/gamma/2", doc)
	if n, err := e1.Checkpoint(); err != nil || n != 1 {
		t.Fatalf("Checkpoint = (%d, %v), want (1, nil)", n, err)
	}
	if err := e1.Close(); err != nil {
		t.Fatal(err)
	}

	// A new process over the same spill dir recovers the index from segment
	// headers; the class body faults in on first touch.
	e2 := spillEngine(t, dir, 0)
	if ts := e2.SpillStats(); ts.SpilledClasses != 1 {
		t.Fatalf("recovered %d spilled classes, want 1", ts.SpilledClasses)
	}
	doc2 := renderDoc("gamma", 2, 5, "u1")
	resp, err := e2.Process(Request{
		URL: "www.shop.com/gamma/2", UserID: "u1", Doc: doc2,
		HaveClassID: classID, HaveVersion: version,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ClassID != classID {
		t.Fatalf("class re-minted as %q, want %q", resp.ClassID, classID)
	}
	if resp.Kind != KindDelta || resp.BaseVersion != version {
		t.Fatalf("restart fault-in: kind=%v baseVersion=%d, want delta against %d", resp.Kind, resp.BaseVersion, version)
	}
	got, err := e2.DecodeAs(base, resp.Payload, resp.Gzipped, resp.Format)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, doc2) {
		t.Fatal("restart fault-in delta did not reconstruct the document")
	}
	// Version numbering continues past the recovered counter: a rebase
	// after recovery must mint a strictly newer version.
	if resp.LatestVersion < version {
		t.Fatalf("recovered latest version %d below spilled %d", resp.LatestVersion, version)
	}
}

// corruptSegments bit-flips a byte near the end of every spill segment so
// framing still scans but the CRC check fails at Take.
func corruptSegments(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ent := range entries {
		if !strings.HasPrefix(ent.Name(), "spill-") {
			continue
		}
		p := filepath.Join(dir, ent.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-10] ^= 0xFF
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("no segment files to corrupt")
	}
}

func TestSpillCorruptRecordDegradesLikeEviction(t *testing.T) {
	dir := t.TempDir()
	e1 := spillEngine(t, dir, 0)
	doc := renderDoc("delta", 0, 0, "u1")
	classID, _, _ := warmHeld(t, e1, "www.shop.com/delta/0", doc)
	if _, ok := e1.EvictClass(classID); !ok {
		t.Fatal("evict failed")
	}
	e1.Close()
	corruptSegments(t, dir)

	e2 := spillEngine(t, dir, 0)
	// The corrupt record is still indexed (CRC is lazy), so the class is
	// flagged; the fault-in fails and the request degrades to a full
	// response — exactly the plain-eviction contract. The client claims no
	// held version: the version counter died with the record, so a
	// restarted class re-mints numbers (the same exposure as restarting
	// on an empty spill dir).
	resp, err := e2.Process(Request{
		URL: "www.shop.com/delta/0", UserID: "u1", Doc: doc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindFull {
		t.Fatalf("corrupt fault-in served %v, want a full response", resp.Kind)
	}
	if ts := e2.SpillStats(); ts.Errors == 0 || ts.FaultIns != 0 {
		t.Fatalf("tier stats after corrupt fault-in: %+v", ts)
	}
	// The class re-warms from traffic like any evicted class: the failed
	// request's own document initialized a fresh base.
	if resp.LatestVersion == 0 {
		t.Fatal("failed fault-in must still let the class re-warm")
	}
	base2, ok := e2.BaseFile(classID, resp.LatestVersion)
	if !ok {
		t.Fatal("re-warmed base not fetchable")
	}
	doc2 := renderDoc("delta", 0, 3, "u1")
	resp, err = e2.Process(Request{
		URL: "www.shop.com/delta/0", UserID: "u1", Doc: doc2,
		HaveClassID: classID, HaveVersion: resp.LatestVersion,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindDelta {
		t.Fatalf("re-warmed class served %v, want delta", resp.Kind)
	}
	if got, err := e2.DecodeAs(base2, resp.Payload, resp.Gzipped, resp.Format); err != nil || !bytes.Equal(got, doc2) {
		t.Fatalf("re-warmed delta reconstruction failed: %v", err)
	}
}

// Class keys embed a creation-order sequence number, so restart recovery
// only works if the same URLs classify back to the same IDs. Checkpoint
// writes the grouping record to make that hold even when post-restart
// traffic arrives in a different order than the classes were created in.
// With that one record corrupt the engine still boots: grouping re-learns
// from traffic and the now unreachable class records degrade like plain
// evictions.
func TestSpillGroupingSurvivesRestart(t *testing.T) {
	for _, corruptGrouping := range []bool{false, true} {
		t.Run(fmt.Sprintf("corruptGrouping=%v", corruptGrouping), func(t *testing.T) {
			dir := t.TempDir()
			e1 := spillEngine(t, dir, 0)
			docA := renderDoc("alpha", 0, 0, "u1")
			classA, verA, baseA := warmHeld(t, e1, "www.shop.com/alpha/0", docA)
			docB := renderDoc("beta", 1, 0, "u1")
			classB, verB, baseB := warmHeld(t, e1, "www.shop.com/beta/1", docB)
			if classA == classB {
				t.Fatalf("expected two distinct classes, both mapped to %q", classA)
			}
			if n, err := e1.Checkpoint(); err != nil || n != 2 {
				t.Fatalf("Checkpoint = (%d, %v), want (2, nil)", n, err)
			}
			if err := e1.Close(); err != nil {
				t.Fatal(err)
			}
			if corruptGrouping {
				// One segment, grouping record last: the flipped byte is its.
				corruptSegments(t, dir)
			}

			// Touch the classes in the OPPOSITE order of their creation.
			// Without the grouping record the manager re-mints sequence
			// numbers by arrival order, the keys miss the recovered index,
			// and both requests re-warm as brand-new classes instead of
			// faulting in.
			e2 := spillEngine(t, dir, 0)
			if gs, _ := e2.GroupingStats(); corruptGrouping != (gs.Classes == 0) {
				t.Fatalf("booted with %d known classes (grouping corrupt: %v)", gs.Classes, corruptGrouping)
			}
			for _, c := range []struct {
				url, dept string
				item      int
				classID   string
				version   int
				base      []byte
			}{
				{"www.shop.com/beta/1", "beta", 1, classB, verB, baseB},
				{"www.shop.com/alpha/0", "alpha", 0, classA, verA, baseA},
			} {
				doc := renderDoc(c.dept, c.item, 9, "u1")
				resp, err := e2.Process(Request{
					URL: c.url, UserID: "u1", Doc: doc,
					HaveClassID: c.classID, HaveVersion: c.version,
				})
				if err != nil {
					t.Fatal(err)
				}
				if corruptGrouping {
					if resp.ClassID == c.classID || resp.Kind != KindFull {
						t.Fatalf("%s: class=%q kind=%v, want a re-minted class serving a full response", c.url, resp.ClassID, resp.Kind)
					}
					continue
				}
				if resp.ClassID != c.classID {
					t.Fatalf("%s re-minted as %q, want %q", c.url, resp.ClassID, c.classID)
				}
				if resp.Kind != KindDelta || resp.BaseVersion != c.version {
					t.Fatalf("%s: kind=%v baseVersion=%d, want delta against %d", c.url, resp.Kind, resp.BaseVersion, c.version)
				}
				got, err := e2.DecodeAs(c.base, resp.Payload, resp.Gzipped, resp.Format)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, doc) {
					t.Fatalf("%s: fault-in delta did not reconstruct the document", c.url)
				}
			}
			ts := e2.SpillStats()
			if wantFI := map[bool]int64{false: 2, true: 0}[corruptGrouping]; ts.FaultIns != wantFI {
				t.Fatalf("FaultIns = %d, want %d", ts.FaultIns, wantFI)
			}
			if corruptGrouping && (ts.Errors != 1 || ts.SpilledClasses != 2) {
				t.Fatalf("want one read error and two orphaned records, got %+v", ts)
			}
		})
	}
}

func TestSpillLedgerDrainsToZero(t *testing.T) {
	// Budget 1: every maintenance pass evicts (and spills) everything.
	// With the disk tier the classes still serve deltas — each request
	// faults its class in, encodes, and the sweep demotes it again — and
	// the RAM ledger drains exactly to zero after every request.
	e := newTestEngine(t, Config{
		MemBudget:            1,
		SpillDir:             t.TempDir(),
		DisableAnonymization: true,
		// No sampling: the base never rebases, so the client's copy of the
		// first document stays byte-identical to the server's only base.
		Selector: basefile.Config{SampleProb: -1},
	})
	t.Cleanup(func() { e.Close() })
	var classID string
	var heldVersion int
	var heldDoc []byte
	for i := 0; i < 8; i++ {
		doc := renderDoc("zeta", 0, i, "u1")
		resp, err := e.Process(Request{
			URL: "www.shop.com/zeta/0", UserID: "u1", Doc: doc,
			HaveClassID: classID, HaveVersion: heldVersion,
		})
		if err != nil {
			t.Fatal(err)
		}
		classID = resp.ClassID
		if i > 0 {
			if resp.Kind != KindDelta {
				t.Fatalf("request %d: kind = %v, want delta (fault-in must serve deltas even at budget 1)", i, resp.Kind)
			}
			got, err := e.DecodeAs(heldDoc, resp.Payload, resp.Gzipped, resp.Format)
			if err != nil || !bytes.Equal(got, doc) {
				t.Fatalf("request %d: reconstruction failed: %v", i, err)
			}
		}
		if resp.LatestVersion > heldVersion {
			heldVersion, heldDoc = resp.LatestVersion, doc
		}
		e.Quiesce()
	}
	e.Quiesce()
	if got := e.acct.Total(); got != 0 {
		t.Fatalf("ledger = %d after spill/fault-in churn, want 0", got)
	}
	ts := e.SpillStats()
	if ts.Spills == 0 || ts.FaultIns == 0 {
		t.Fatalf("budget-1 engine must churn through the tier: %+v", ts)
	}
}

// TestSpillStaleRecordDoesNotRebindVersion forces the interleaving behind
// the diurnal spill corruption: a class is stripped (record at version N
// captured), re-warmed by a request that slipped in before the eviction's
// spilled flag was set (version N+1, new bytes, handed to a client), and
// stripped again — and the two tier appends land newest-first, so the
// version-N record wins the tier's latest-record-wins index. The fault-in
// then finds the class empty with its counter at N+1; installing the
// record's selector base would pair N+1 with bytes no client holds.
func TestSpillStaleRecordDoesNotRebindVersion(t *testing.T) {
	e := newTestEngine(t, Config{
		SpillDir:             t.TempDir(),
		DisableAnonymization: true,
		Selector:             basefile.Config{SampleProb: -1},
	})
	t.Cleanup(func() { e.Close() })
	const url = "www.shop.com/delta/0"
	classID, v1, _ := warmHeld(t, e, url, renderDoc("delta", 0, 0, "u1"))
	cs, ok := e.lookup(classID)
	if !ok {
		t.Fatal("class missing after warm-up")
	}

	// First strip: capture what Evict captures, but hold the append back.
	cs.mu.Lock()
	stale := cs.spillRecordLocked()
	cs.mu.Unlock()
	if stale == nil || stale.SelectorVersion != v1 {
		t.Fatalf("stale record = %+v, want selector version %d", stale, v1)
	}
	if _, ok := e.EvictClass(classID); !ok {
		t.Fatal("first evict failed")
	}
	// The slipped-in request: it ran before the flag flipped, so it re-warms
	// from traffic instead of faulting in. Different bytes than version N.
	cs.spilled.Store(false)
	held := append(renderDoc("delta", 0, 1, "u2"), "<!-- re-warm -->"...)
	resp, err := e.Process(Request{URL: url, UserID: "u2", Doc: held})
	if err != nil {
		t.Fatal(err)
	}
	v2 := resp.LatestVersion
	if v2 <= v1 {
		t.Fatalf("re-warm announced version %d, want above %d", v2, v1)
	}
	heldBase, ok := e.BaseFile(classID, v2)
	if !ok {
		t.Fatal("re-warmed base not fetchable")
	}
	// Second strip, whose append lands first; then the held-back one.
	if _, ok := e.EvictClass(classID); !ok {
		t.Fatal("second evict failed")
	}
	if err := cs.spill.Append(*stale); err != nil {
		t.Fatal(err)
	}

	doc := renderDoc("delta", 0, 2, "u2")
	resp, err = e.Process(Request{
		URL: url, UserID: "u2", Doc: doc,
		HaveClassID: classID, HaveVersion: v2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if base, ok := e.BaseFile(classID, v2); ok && !bytes.Equal(base, heldBase) {
		t.Fatalf("version %d now names different bytes than the client holds", v2)
	}
	if resp.Kind == KindDelta {
		if resp.BaseVersion != v2 {
			t.Fatalf("delta against version %d, client holds %d", resp.BaseVersion, v2)
		}
		got, err := e.DecodeAs(heldBase, resp.Payload, resp.Gzipped, resp.Format)
		if err != nil {
			t.Fatalf("delta does not decode against the held base: %v", err)
		}
		if !bytes.Equal(got, doc) {
			t.Fatal("delta reconstructs the wrong document")
		}
	}
	if _, v := cs.selector.Base(); v < v2 {
		t.Fatalf("selector counter fell to %d, below the announced %d", v, v2)
	}
}
