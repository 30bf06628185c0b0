package core

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cbde/internal/basefile"
)

// budgetedEngine builds an engine with a byte budget, anonymization off so
// bases distribute immediately, and a deterministic clock.
func budgetedEngine(t *testing.T, budget int64) *Engine {
	t.Helper()
	return newTestEngine(t, Config{
		MemBudget:            budget,
		DisableAnonymization: true,
	})
}

// churnHeld is one simulated client's held base for a class.
type churnHeld struct {
	classID string
	version int
	base    []byte
}

// TestBudgetEnforcedUnderChurn drives more classes than the budget can hold
// and checks the acceptance bound: after every (sequential) request the
// resident ledger is at or under the budget — the end-of-request sweep
// converges before Process returns — while every delta response still
// reconstructs the origin document byte-identically.
func TestBudgetEnforcedUnderChurn(t *testing.T) {
	const budget = 64 << 10
	e := budgetedEngine(t, budget)

	depts := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	held := map[string]churnHeld{}
	deltas := 0
	for i := 0; i < 400; i++ {
		dept := depts[i%len(depts)]
		user := fmt.Sprintf("user-%d", i%7)
		doc := renderDoc(dept, i%3, i/8, user)
		req := Request{
			URL:    fmt.Sprintf("www.shop.com/%s/%d", dept, i%3),
			UserID: user,
			Doc:    doc,
		}
		if h, ok := held[dept]; ok {
			req.HaveClassID = h.classID
			req.HaveVersion = h.version
		}
		resp, err := e.Process(req)
		if err != nil {
			t.Fatal(err)
		}

		if resp.Kind == KindDelta {
			h := held[dept]
			got, err := e.DecodeAs(h.base, resp.Payload, resp.Gzipped, resp.Format)
			if err != nil {
				t.Fatalf("request %d: decode delta: %v", i, err)
			}
			if !bytes.Equal(got, doc) {
				t.Fatalf("request %d: delta round-trip mismatch", i)
			}
			deltas++
		}

		// Client refresh: fetch the announced latest base when it moved;
		// drop the held base when the class is evicted (LatestVersion 0).
		if resp.LatestVersion == 0 {
			delete(held, dept)
		} else if resp.LatestVersion != held[dept].version {
			if base, ok := e.BaseFile(resp.ClassID, resp.LatestVersion); ok {
				held[dept] = churnHeld{classID: resp.ClassID, version: resp.LatestVersion, base: base}
			}
		}

		if got := e.StoreStats().Resident.Total; got > budget {
			t.Fatalf("request %d: resident bytes %d exceed budget %d after sweep", i, got, budget)
		}
	}

	st := e.StoreStats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite demand exceeding the budget")
	}
	if st.Budget != budget {
		t.Fatalf("StoreStats budget = %d, want %d", st.Budget, budget)
	}
	if len(st.Log) == 0 {
		t.Fatal("eviction log is empty")
	}
	if deltas == 0 {
		t.Fatal("no delta responses served; churn test never exercised the warm path")
	}
}

// TestEvictedClassDegradesAndRewarms pins the degradation contract: an
// evicted class answers with full responses and announces only resident
// versions, re-warms from the next traffic, and never reuses a version
// number for different bytes.
func TestEvictedClassDegradesAndRewarms(t *testing.T) {
	// Small enough that pruning alone cannot keep two warm classes
	// resident: the sweep must evict the cold one.
	const budget = 10 << 10
	e := budgetedEngine(t, budget)

	// Warm class A until it has a distributable base.
	var aID string
	var aVersion int
	for u := 0; u < 4; u++ {
		user := fmt.Sprintf("a-user-%d", u)
		resp, err := e.Process(Request{
			URL:    "www.shop.com/alpha/1",
			UserID: user,
			Doc:    renderDoc("alpha", 1, u, user),
		})
		if err != nil {
			t.Fatal(err)
		}
		aID, aVersion = resp.ClassID, resp.LatestVersion
	}
	if aVersion == 0 {
		t.Fatal("class A never got a distributable base")
	}

	// Hammer class B until the sweep evicts A.
	evicted := false
	for i := 0; i < 400 && !evicted; i++ {
		user := fmt.Sprintf("b-user-%d", i%9)
		if _, err := e.Process(Request{
			URL:    "www.shop.com/beta/2",
			UserID: user,
			Doc:    renderDoc("beta", 2, i, user),
		}); err != nil {
			t.Fatal(err)
		}
		st, ok := e.ClassStats(aID)
		if !ok {
			t.Fatal("class A vanished from the stats table")
		}
		evicted = st.Evicted
	}
	if !evicted {
		t.Fatalf("class A never evicted (store stats: %+v)", e.StoreStats())
	}

	st, _ := e.ClassStats(aID)
	if st.Evictions == 0 {
		t.Fatalf("evicted class reports %d evictions", st.Evictions)
	}
	if st.BaseVersion != 0 {
		t.Fatalf("evicted class still announces base version %d", st.BaseVersion)
	}
	if st.ResidentBytes != 0 {
		t.Fatalf("evicted class still accounts %d resident bytes", st.ResidentBytes)
	}
	if _, ok := e.BaseFile(aID, aVersion); ok {
		t.Fatal("evicted class still serves its old base version")
	}

	// Requests to A again: the first is served in full (the held base is
	// gone) and re-warms the class — anonymization is off, so the document
	// becomes a distributable base again at a strictly newer version. A
	// sweep can immediately re-evict the re-warmed base while the store is
	// saturated, so drive a few requests until the base is fetchable.
	rewarmed := false
	for j := 0; j < 30 && !rewarmed; j++ {
		resp, err := e.Process(Request{
			URL:         "www.shop.com/alpha/1",
			UserID:      "returning-user",
			Doc:         renderDoc("alpha", 1, 100+j, "returning-user"),
			HaveClassID: aID,
			HaveVersion: aVersion,
		})
		if err != nil {
			t.Fatal(err)
		}
		if j == 0 && resp.Kind != KindFull {
			t.Fatalf("first post-eviction response is %v, want full", resp.Kind)
		}
		if resp.LatestVersion != 0 && resp.LatestVersion <= aVersion {
			t.Fatalf("re-warmed version %d does not exceed pre-eviction version %d (version reuse)",
				resp.LatestVersion, aVersion)
		}
		if resp.LatestVersion > aVersion {
			if _, ok := e.BaseFile(aID, resp.LatestVersion); ok {
				rewarmed = true
				st, _ = e.ClassStats(aID)
				if st.Rewarms == 0 {
					t.Fatal("re-warmed class reports zero rewarms")
				}
				if st.Evicted {
					t.Fatal("class with a resident base still marked evicted")
				}
			}
		}
	}
	if !rewarmed {
		t.Fatalf("class A never re-warmed to a fetchable base (store stats: %+v)", e.StoreStats())
	}
}

// TestLedgerDrainsToZero is the byte-accuracy invariant: with a budget so
// small that every sweep evicts everything, the accountant must return to
// exactly zero after each request — any leak or double-count surfaces as a
// nonzero residue.
func TestLedgerDrainsToZero(t *testing.T) {
	e := budgetedEngine(t, 1)
	for i := 0; i < 60; i++ {
		dept := []string{"alpha", "beta"}[i%2]
		user := fmt.Sprintf("user-%d", i%5)
		if _, err := e.Process(Request{
			URL:    fmt.Sprintf("www.shop.com/%s/1", dept),
			UserID: user,
			Doc:    renderDoc(dept, 1, i, user),
		}); err != nil {
			t.Fatal(err)
		}
		if got := e.StoreStats().Resident; got.Total != 0 {
			t.Fatalf("request %d: ledger residue after full eviction: %+v", i, got)
		}
	}
	if st := e.StoreStats(); st.Evictions == 0 {
		t.Fatal("no evictions under a 1-byte budget")
	}
}

// TestConcurrentProcessEvictSave is the race-detector stress for the
// governed store: concurrent clients (delta decode verified byte-for-byte
// against the origin document), budget sweeps triggered by every request
// demoting classes into the disk tier, and a checkpointer appending every
// resident class's record while eviction and fault-in churn underneath.
func TestConcurrentProcessEvictSave(t *testing.T) {
	const budget = 32 << 10
	dir := t.TempDir()
	e := spillEngine(t, dir, budget)

	depts := []string{"alpha", "beta", "gamma", "delta"}
	const workers = 4
	const iters = 250

	var workersWG sync.WaitGroup
	done := make(chan struct{})

	// Checkpointer: must stay consistent while classes evict, spill and
	// fault back in underneath it.
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := e.Checkpoint(); err != nil {
				t.Errorf("Checkpoint under churn: %v", err)
				return
			}
			e.StoreStats()
			e.AllClassStats()
		}
	}()

	for w := 0; w < workers; w++ {
		workersWG.Add(1)
		go func(w int) {
			defer workersWG.Done()
			mine := map[string]churnHeld{}
			for i := 0; i < iters; i++ {
				dept := depts[(i+w)%len(depts)]
				user := fmt.Sprintf("w%d-u%d", w, i%6)
				doc := renderDoc(dept, i%3, i/4, user)
				req := Request{
					URL:    fmt.Sprintf("www.shop.com/%s/%d", dept, i%3),
					UserID: user,
					Doc:    doc,
				}
				if h, ok := mine[dept]; ok {
					req.HaveClassID = h.classID
					req.HaveVersion = h.version
				}
				resp, err := e.Process(req)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Kind == KindDelta {
					h := mine[dept]
					if resp.BaseVersion != h.version {
						t.Errorf("delta against version %d, client holds %d", resp.BaseVersion, h.version)
						return
					}
					got, err := e.DecodeAs(h.base, resp.Payload, resp.Gzipped, resp.Format)
					if err != nil {
						t.Errorf("decode delta under churn: %v", err)
						return
					}
					if !bytes.Equal(got, doc) {
						t.Error("delta round-trip mismatch under churn")
						return
					}
				}
				if resp.LatestVersion == 0 {
					// The class is evicted right now; drop the held base
					// like a client whose refresh 404ed.
					delete(mine, dept)
				} else if resp.LatestVersion != mine[dept].version {
					if base, ok := e.BaseFile(resp.ClassID, resp.LatestVersion); ok {
						mine[dept] = churnHeld{classID: resp.ClassID, version: resp.LatestVersion, base: base}
					}
				}
			}
		}(w)
	}

	workersWG.Wait()
	close(done)
	<-snapDone

	// Final bound after quiescing: one more sweep lands at or under budget.
	if _, err := e.Process(Request{
		URL: "www.shop.com/alpha/0", UserID: "fin", Doc: renderDoc("alpha", 0, 0, "fin"),
	}); err != nil {
		t.Fatal(err)
	}
	if got := e.StoreStats().Resident.Total; got > budget {
		t.Fatalf("resident bytes %d exceed budget %d after quiesce", got, budget)
	}

	// Only evictions flag classes: a checkpoint of the now quiescent engine
	// leaves the flagged set exactly as it found it.
	flagged := func() []string {
		var ids []string
		for _, st := range e.AllClassStats() {
			if st.Spilled {
				ids = append(ids, st.ID)
			}
		}
		return ids
	}
	before := flagged()
	if _, err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if after := flagged(); !reflect.DeepEqual(before, after) {
		t.Fatalf("Checkpoint changed the spilled set: %v -> %v", before, after)
	}
	// Every class that ever minted a version has a record for a restart.
	classes := len(e.AllClassStats())
	e.Close()
	if got := spillEngine(t, dir, budget).SpillStats(); got.SpilledClasses != classes || got.Errors != 0 {
		t.Fatalf("restart recovered %d of %d classes: %+v", got.SpilledClasses, classes, got)
	}
}

// TestBudgetEnforcedWithAsyncSampling pins the acceptance bound under the
// delta-server's production selector config: asynchronous sample admission
// installs candidate bytes *after* the sampling request's Maintain has
// returned, so each admission must schedule its own budget pass
// (basefile.Config.AfterAsyncAdmit). Without that hook a quiesced store
// can sit over budget with no sweep ever coming — the exact flake the CI
// store-smoke job caught.
func TestBudgetEnforcedWithAsyncSampling(t *testing.T) {
	const budget = 256 << 10
	for round := 0; round < 3; round++ {
		e := newTestEngine(t, Config{
			MemBudget:            budget,
			DisableAnonymization: true,
			Selector:             basefile.Config{AsyncSampling: true, SampleProb: 0.5},
		})

		depts := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				mine := map[string]churnHeld{}
				for i := 0; i < 60; i++ {
					dept := depts[(w+i)%len(depts)]
					user := fmt.Sprintf("w%d-u%d", w, i%5)
					doc := renderDoc(dept, i%3, i/4, user)
					req := Request{
						URL:    fmt.Sprintf("www.shop.com/%s/%d", dept, i%3),
						UserID: user,
						Doc:    doc,
					}
					if h, ok := mine[dept]; ok {
						req.HaveClassID = h.classID
						req.HaveVersion = h.version
					}
					resp, err := e.Process(req)
					if err != nil {
						t.Error(err)
						return
					}
					if resp.LatestVersion == 0 {
						delete(mine, dept)
					} else if resp.LatestVersion != mine[dept].version {
						if base, ok := e.BaseFile(resp.ClassID, resp.LatestVersion); ok {
							mine[dept] = churnHeld{classID: resp.ClassID, version: resp.LatestVersion, base: base}
						}
					}
				}
			}(w)
		}
		wg.Wait()

		// Quiesce drains pending admissions and the maintenance each one
		// scheduled; after that the bound must hold with no further traffic.
		e.Quiesce()
		if st := e.StoreStats(); st.Resident.Total > budget {
			t.Fatalf("round %d: quiescent resident %d exceeds budget %d (base %d cand %d index %d)",
				round, st.Resident.Total, budget,
				st.Resident.BaseBytes, st.Resident.CandBytes, st.Resident.IndexBytes)
		}
	}
}
