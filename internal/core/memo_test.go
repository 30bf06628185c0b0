package core

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"

	"cbde/internal/anonymize"
	"cbde/internal/basefile"
	"cbde/internal/obs"
	"cbde/internal/testutil"
)

// memoEngine builds an engine with anonymization off (bases distribute
// immediately) and sampling off (no background candidate churn), warms one
// class, and returns a request that yields a delta response.
func memoEngine(t *testing.T, cfg Config) (*Engine, Request) {
	t.Helper()
	if cfg.Selector.SampleProb == 0 {
		cfg.Selector = basefile.Config{SampleProb: -1}
	}
	cfg.DisableAnonymization = true
	e := newTestEngine(t, cfg)
	const url = "www.memo.com/catalog/0"
	var resp Response
	var err error
	for u := 0; u < 3; u++ {
		user := fmt.Sprintf("warm-%d", u)
		resp, err = e.Process(Request{URL: url, UserID: user, Doc: renderDoc("catalog", 0, u, user)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if resp.LatestVersion == 0 {
		t.Fatal("no distributable base after warmup")
	}
	doc := renderDoc("catalog", 0, 50, "memo-user")
	return e, Request{
		URL: url, UserID: "memo-user", Doc: doc,
		HaveClassID: resp.ClassID, HaveVersion: resp.LatestVersion,
	}
}

// decodeAgainstLiveBase reconstructs a delta response against the base
// version it names, fetched live from the engine, and byte-compares it
// with the origin document — the end-to-end correctness check for every
// memoized serve.
func decodeAgainstLiveBase(t *testing.T, e *Engine, classID string, resp Response, doc []byte) {
	t.Helper()
	if resp.Kind != KindDelta {
		t.Fatalf("response kind = %v, want delta", resp.Kind)
	}
	base, ok := e.BaseFileView(classID, resp.BaseVersion)
	if !ok {
		t.Fatalf("served delta against version %d but the base is not resident", resp.BaseVersion)
	}
	got, err := e.DecodeAs(base, resp.Payload, resp.Gzipped, resp.Format)
	if err != nil {
		t.Fatalf("decode served delta: %v", err)
	}
	if !bytes.Equal(got, doc) {
		t.Fatalf("delta round-trip mismatch: got %d bytes, want %d", len(got), len(doc))
	}
}

// TestMemoizedRepeatServesCachedDelta pins the warm-warm contract: a
// repeated (class, version, document) request is served from the memo
// cache — no second encode, the payload aliases the cached bytes — and
// the cached bytes are charged to the delta ledger and visible through
// DeltaCacheStats and the traced memo stage.
func TestMemoizedRepeatServesCachedDelta(t *testing.T) {
	eng, req := warmEngine(t, Config{Anon: anonymize.Config{M: 1, N: 2}})

	first, err := eng.Process(req)
	if err != nil {
		t.Fatal(err)
	}
	if first.Kind != KindDelta {
		t.Fatalf("first response kind = %v, want delta", first.Kind)
	}
	hits0 := eng.ctr.memoHits.Value()
	encodes0 := eng.ctr.encodeRuns.Value()

	second, err := eng.Process(req)
	if err != nil {
		t.Fatal(err)
	}
	if second.Kind != KindDelta {
		t.Fatalf("second response kind = %v, want delta", second.Kind)
	}
	if got := eng.ctr.memoHits.Value(); got != hits0+1 {
		t.Errorf("memo hits = %d after repeat, want %d", got, hits0+1)
	}
	if got := eng.ctr.encodeRuns.Value(); got != encodes0 {
		t.Errorf("encode runs = %d after repeat, want %d (hit must not encode)", got, encodes0)
	}
	if !bytes.Equal(second.Payload, first.Payload) || second.Gzipped != first.Gzipped {
		t.Fatal("memoized payload differs from the encoded one")
	}
	if &second.Payload[0] != &first.Payload[0] {
		t.Error("memo hit copied the payload; it must alias the cached bytes (zero-copy)")
	}
	if second.BaseVersion != first.BaseVersion || second.LatestVersion != first.LatestVersion {
		t.Errorf("hit versions (%d, %d) differ from lead's (%d, %d)",
			second.BaseVersion, second.LatestVersion, first.BaseVersion, first.LatestVersion)
	}
	decodeAgainstLiveBase(t, eng, req.HaveClassID, second, req.Doc)

	dc := eng.DeltaCacheStats()
	if !dc.Enabled {
		t.Fatal("DeltaCacheStats reports the default-on cache disabled")
	}
	if dc.Hits == 0 || dc.Misses == 0 {
		t.Errorf("delta cache stats = %+v, want hits and misses recorded", dc)
	}
	if dc.Entries != 1 || dc.Bytes != int64(len(first.Payload)) {
		t.Errorf("delta cache stats = %+v, want 1 entry of %d bytes", dc, len(first.Payload))
	}
	if got := eng.StoreStats().Resident.DeltaBytes; got != dc.Bytes+dc.HintBytes {
		t.Errorf("ledger delta bytes = %d, stats report %d cached + %d hint", got, dc.Bytes, dc.HintBytes)
	}

	// A traced hit records the memo stage with the served bytes and never
	// reaches the encode or gzip stages.
	eng.SetTracing(true)
	third, err := eng.Process(req)
	if err != nil {
		t.Fatal(err)
	}
	if third.Trace == nil {
		t.Fatal("tracing enabled but Response.Trace is nil")
	}
	if memo := third.Trace.Stages[obs.StageMemo]; memo.Bytes != int64(len(first.Payload)) {
		t.Errorf("memo span bytes = %d, want the cached payload size %d", memo.Bytes, len(first.Payload))
	}
	if enc := third.Trace.Stages[obs.StageEncode]; enc.Dur != 0 || enc.Bytes != 0 {
		t.Errorf("encode span = %+v on a memo hit, want empty", enc)
	}
}

// TestMemoCoalescingStressSingleEncode is the singleflight stress: many
// goroutines race the same cold key and exactly one encode runs; every
// response shares the leader's payload byte-for-byte, and the shared bytes
// survive later encode-pool churn untouched (no pooled-scratch aliasing).
func TestMemoCoalescingStressSingleEncode(t *testing.T) {
	eng, req := memoEngine(t, Config{})
	classID := req.HaveClassID

	encodes0 := eng.ctr.encodeRuns.Value()
	misses0 := eng.ctr.memoMisses.Value()
	hits0 := eng.ctr.memoHits.Value()
	coal0 := eng.ctr.memoCoalesced.Value()

	const workers = 16
	payloads := make([][]byte, workers)
	responses := make([]Response, workers)
	errs := make([]error, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			resp, err := eng.Process(req)
			if err != nil {
				errs[g] = err
				return
			}
			if resp.Kind != KindDelta {
				errs[g] = fmt.Errorf("worker %d: response kind = %v, want delta", g, resp.Kind)
				return
			}
			payloads[g] = resp.Payload
			responses[g] = resp
		}(g)
	}
	close(start)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got := eng.ctr.encodeRuns.Value() - encodes0; got != 1 {
		t.Fatalf("%d concurrent cold requests ran %d encodes, want exactly 1", workers, got)
	}
	if got := eng.ctr.memoMisses.Value() - misses0; got != 1 {
		t.Errorf("memo misses = %d, want exactly 1 leader", got)
	}
	hits := eng.ctr.memoHits.Value() - hits0
	coalesced := eng.ctr.memoCoalesced.Value() - coal0
	if hits+coalesced != workers-1 {
		t.Errorf("hits (%d) + coalesced (%d) = %d, want %d followers", hits, coalesced, hits+coalesced, workers-1)
	}
	for g := 1; g < workers; g++ {
		if !bytes.Equal(payloads[g], payloads[0]) {
			t.Fatalf("worker %d payload differs from worker 0", g)
		}
		if &payloads[g][0] != &payloads[0][0] {
			t.Fatalf("worker %d got a copy; all sharers must alias the one cached payload", g)
		}
	}
	decodeAgainstLiveBase(t, eng, classID, responses[0], req.Doc)

	// Churn the pooled encode scratch with fresh documents: the retained
	// payload is a fresh allocation, so its checksum must not move.
	sum := crc32.ChecksumIEEE(payloads[0])
	for i := 0; i < 25; i++ {
		user := fmt.Sprintf("churn-%d", i)
		if _, err := eng.Process(Request{
			URL: req.URL, UserID: user, Doc: renderDoc("catalog", 0, 200+i, user),
			HaveClassID: req.HaveClassID, HaveVersion: req.HaveVersion,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if got := crc32.ChecksumIEEE(payloads[0]); got != sum {
		t.Fatal("shared payload bytes changed under encode-pool churn (pooled-scratch aliasing)")
	}
	decodeAgainstLiveBase(t, eng, classID, responses[0], req.Doc)
}

// TestMemoInvalidation drives every invalidation barrier — version
// install, basic rebase, class eviction — and
// checks that the cache empties, the next request re-leads (no stale hit),
// and the delta then served decodes against the live base it names.
func TestMemoInvalidation(t *testing.T) {
	cases := []struct {
		name string
		// mutate invalidates; it returns false if the re-request check
		// should warm the class again first (post-eviction).
		mutate func(t *testing.T, e *Engine, req Request) bool
	}{
		{
			name: "version install",
			mutate: func(t *testing.T, e *Engine, req Request) bool {
				cs, ok := e.lookup(req.HaveClassID)
				if !ok {
					t.Fatal("warm class missing")
				}
				cs.mu.Lock()
				next := cs.distVersion + 1
				e.installBase(cs, next, append([]byte(nil), renderDoc("catalog", 0, 60, "")...), e.cfg.Now())
				cs.mu.Unlock()
				return true
			},
		},
		{
			name: "basic rebase",
			mutate: func(t *testing.T, e *Engine, req Request) bool {
				// An incompressible document forces an oversized delta; the
				// resulting rebase installs a new base (anonymization is off).
				resp, err := e.Process(Request{
					URL: req.URL, UserID: "rebaser", Doc: incompressible(7, 64<<10),
					HaveClassID: req.HaveClassID, HaveVersion: req.HaveVersion,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !resp.BasicRebase {
					t.Fatalf("incompressible document did not trigger a basic rebase: %+v", resp.Kind)
				}
				return true
			},
		},
		{
			name: "class evict and re-warm",
			mutate: func(t *testing.T, e *Engine, req Request) bool {
				cs, ok := e.lookup(req.HaveClassID)
				if !ok {
					t.Fatal("warm class missing")
				}
				cs.Evict()
				return false
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e, req := memoEngine(t, Config{})

			// Fill: lead then hit, so the cache provably holds the entry.
			first, err := e.Process(req)
			if err != nil {
				t.Fatal(err)
			}
			decodeAgainstLiveBase(t, e, req.HaveClassID, first, req.Doc)
			hits0 := e.ctr.memoHits.Value()
			if _, err := e.Process(req); err != nil {
				t.Fatal(err)
			}
			if e.ctr.memoHits.Value() != hits0+1 {
				t.Fatal("repeat before mutation did not hit the cache")
			}
			inv0 := e.DeltaCacheStats().Invalidations

			stillServable := tc.mutate(t, e, req)

			dc := e.DeltaCacheStats()
			if dc.Entries != 0 {
				t.Fatalf("%d cache entries survive the %s barrier, want 0", dc.Entries, tc.name)
			}
			if dc.Invalidations <= inv0 {
				t.Errorf("invalidation counter did not advance across the %s barrier", tc.name)
			}

			if !stillServable {
				// The class was evicted: the held base is gone, so the next
				// response is full; fresh traffic re-warms to a newer version
				// and the cache works against it.
				resp, err := e.Process(req)
				if err != nil {
					t.Fatal(err)
				}
				if resp.Kind != KindFull {
					t.Fatalf("post-eviction response kind = %v, want full", resp.Kind)
				}
				var warm Response
				for u := 0; u < 2; u++ {
					user := fmt.Sprintf("rewarm-%d", u)
					warm, err = e.Process(Request{URL: req.URL, UserID: user, Doc: renderDoc("catalog", 0, 70+u, user)})
					if err != nil {
						t.Fatal(err)
					}
				}
				if warm.LatestVersion <= req.HaveVersion {
					t.Fatalf("re-warmed version %d does not exceed pre-eviction version %d", warm.LatestVersion, req.HaveVersion)
				}
				req.HaveVersion = warm.LatestVersion
			}

			// Post-barrier serving: the request must re-lead (a miss, not a
			// stale hit) and the delta must decode against the live base.
			misses0 := e.ctr.memoMisses.Value()
			resp, err := e.Process(req)
			if err != nil {
				t.Fatal(err)
			}
			if e.ctr.memoMisses.Value() != misses0+1 {
				t.Errorf("post-%s request did not re-lead the encode", tc.name)
			}
			decodeAgainstLiveBase(t, e, req.HaveClassID, resp, req.Doc)

			// And the re-led entry memoizes again.
			hits1 := e.ctr.memoHits.Value()
			repeat, err := e.Process(req)
			if err != nil {
				t.Fatal(err)
			}
			if e.ctr.memoHits.Value() != hits1+1 {
				t.Errorf("repeat after re-lead did not hit the rebuilt cache")
			}
			decodeAgainstLiveBase(t, e, req.HaveClassID, repeat, req.Doc)
		})
	}
}

// TestEvictDrainsDeltaBytesExactly pins the ledger interaction: evicting
// (or pruning) a class returns every cached delta byte and every replay
// hint byte — the delta category lands on exactly zero, with the freed
// total covering it.
func TestEvictDrainsDeltaBytesExactly(t *testing.T) {
	e, req := memoEngine(t, Config{})
	fill := func() int64 {
		t.Helper()
		for i := 0; i < 4; i++ {
			user := fmt.Sprintf("filler-%d", i)
			resp, err := e.Process(Request{
				URL: req.URL, UserID: user, Doc: renderDoc("catalog", 0, 300+i, user),
				HaveClassID: req.HaveClassID, HaveVersion: req.HaveVersion,
			})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Kind != KindDelta {
				t.Fatalf("fill %d: kind = %v, want delta", i, resp.Kind)
			}
		}
		db := e.StoreStats().Resident.DeltaBytes
		dc := e.DeltaCacheStats()
		if dc.Bytes <= 0 || dc.HintBytes <= 0 {
			t.Fatalf("cache fills left %d cached and %d hint bytes, want both charged", dc.Bytes, dc.HintBytes)
		}
		if dc.Bytes+dc.HintBytes != db {
			t.Fatalf("cache reports %d + %d hint bytes, ledger charges %d", dc.Bytes, dc.HintBytes, db)
		}
		return db
	}
	drained := func(after string) {
		t.Helper()
		if got := e.StoreStats().Resident.DeltaBytes; got != 0 {
			t.Errorf("delta ledger = %d after %s, want exactly 0", got, after)
		}
		if got := e.DeltaCacheStats().HintBytes; got != 0 {
			t.Errorf("%d hint bytes survive %s", got, after)
		}
	}

	cs, ok := e.lookup(req.HaveClassID)
	if !ok {
		t.Fatal("warm class missing")
	}

	deltaBytes := fill()
	total := e.StoreStats().Resident.Total
	freed := cs.Evict()
	if freed < deltaBytes {
		t.Errorf("Evict freed %d bytes, want at least the %d cached delta bytes", freed, deltaBytes)
	}
	drained("eviction")
	res := e.StoreStats().Resident
	if res.Total != total-freed {
		t.Errorf("resident total = %d after freeing %d from %d", res.Total, freed, total)
	}
	if got := cs.ResidentBytes(); got != 0 {
		t.Errorf("evicted class still accounts %d resident bytes", got)
	}

	// Re-warm, refill, and prune: pruning keeps the newest base but still
	// drains the delta category to exactly zero.
	var warm Response
	var err error
	for u := 0; u < 2; u++ {
		user := fmt.Sprintf("rewarm-%d", u)
		warm, err = e.Process(Request{URL: req.URL, UserID: user, Doc: renderDoc("catalog", 0, 80+u, user)})
		if err != nil {
			t.Fatal(err)
		}
	}
	req.HaveVersion = warm.LatestVersion
	deltaBytes = fill()
	if freed := cs.Prune(); freed < deltaBytes {
		t.Errorf("Prune freed %d bytes, want at least the %d cached delta bytes", freed, deltaBytes)
	}
	drained("prune")
}

// TestBudgetConvergesWithMemoizedFills mirrors the async-sampling budget
// bound with the memo cache in play: every request is issued twice (the
// repeat lands on — or refills — the cache), so cached delta bytes race
// installs and sweeps. After quiescing, the full resident ledger including
// the delta category must sit at or under the budget.
func TestBudgetConvergesWithMemoizedFills(t *testing.T) {
	const budget = 256 << 10
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
			for i := 0; i < 40; i++ {
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
				var resp Response
				for rep := 0; rep < 2; rep++ { // the repeat exercises the memo cache
					var err error
					resp, err = e.Process(req)
					if err != nil {
						t.Error(err)
						return
					}
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

	e.Quiesce()
	st := e.StoreStats()
	if st.Resident.Total > budget {
		t.Fatalf("quiescent resident %d exceeds budget %d (base %d cand %d index %d delta %d)",
			st.Resident.Total, budget, st.Resident.BaseBytes, st.Resident.CandBytes,
			st.Resident.IndexBytes, st.Resident.DeltaBytes)
	}
	dc := e.DeltaCacheStats()
	if dc.Hits+dc.Coalesced == 0 {
		t.Fatal("no memo hits under repeated requests; the budget run never exercised the cache")
	}
	if st.Resident.DeltaBytes != dc.Bytes+dc.HintBytes {
		t.Errorf("quiescent delta ledger %d != cache-reported bytes %d + hint bytes %d",
			st.Resident.DeltaBytes, dc.Bytes, dc.HintBytes)
	}
	// Evicting every class returns every cached and hint byte.
	for _, cs := range e.states() {
		cs.Evict()
	}
	if got := e.StoreStats().Resident; got.DeltaBytes != 0 || got.Total != 0 {
		t.Errorf("ledger after evicting every class: %+v, want exactly 0", got)
	}
	if got := e.DeltaCacheStats().HintBytes; got != 0 {
		t.Errorf("%d hint bytes survive evicting every class", got)
	}
}

// TestProcessMemoHitAllocBudget pins the acceptance bound on the hot hit
// path: serving a memoized delta allocates at most 5 objects per request.
func TestProcessMemoHitAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	const memoHitAllocBudget = 5
	eng, req := warmEngine(t, Config{
		Anon:     anonymize.Config{M: 1, N: 2},
		Selector: basefile.Config{SampleProb: -1},
	})
	for i := 0; i < 5; i++ { // fill the cache and warm the pools
		if _, err := eng.Process(req); err != nil {
			t.Fatal(err)
		}
	}
	hits0 := eng.ctr.memoHits.Value()
	allocs := testing.AllocsPerRun(100, func() {
		resp, err := eng.Process(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Kind != KindDelta {
			t.Fatalf("warm request served %v, want delta", resp.Kind)
		}
	})
	if eng.ctr.memoHits.Value() == hits0 {
		t.Fatal("measured loop never hit the memo cache")
	}
	if allocs > memoHitAllocBudget {
		t.Errorf("memoized hit allocates %.1f objects/op, budget %d", allocs, memoHitAllocBudget)
	}
	t.Logf("memoized hit path: %.1f allocs/op (budget %d)", allocs, memoHitAllocBudget)
}
