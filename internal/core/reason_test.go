package core

import (
	"fmt"
	"hash/maphash"
	"runtime"
	"strings"
	"sync"
	"testing"

	"cbde/internal/anonymize"
	"cbde/internal/basefile"
	"cbde/internal/deltacache"
	"cbde/internal/metrics"
)

// TestDecideTable pins decide's closed mapping from snapshot to plan or
// full reason. The encode-time reasons (delta_too_big, chain_not_smaller,
// encode_error) are demotions of a direct or chain plan: decide never
// returns them, and TestProcessReachesEveryFullReason reaches each one.
func TestDecideTable(t *testing.T) {
	base := &baseVersion{bytes: []byte("base")}
	chain := []*versionEdge{{from: 1, to: 2}}
	const docLen, ratio = 1000, 0.5
	for _, c := range []struct {
		name string
		snap encodeSnapshot
		est  chainEstimate
		want Reason
	}{
		{"current client", encodeSnapshot{distVersion: 2, held: true, clientVersion: 2, base: base}, chainEstimate{}, ReasonDirect},
		{"lagging, broken walk", encodeSnapshot{distVersion: 2, held: true, clientVersion: 1, base: base}, chainEstimate{}, ReasonDirect},
		{"lagging, chain predicted larger", encodeSnapshot{distVersion: 2, held: true, clientVersion: 1, base: base, chain: chain, tipBase: base}, chainEstimate{direct: 100, composed: 101}, ReasonDirect},
		{"lagging, chain predicted smaller", encodeSnapshot{distVersion: 2, held: true, clientVersion: 1, base: base, chain: chain, tipBase: base}, chainEstimate{direct: 100, composed: 90}, ReasonChain},
		{"lagging, tie goes to chain", encodeSnapshot{distVersion: 2, held: true, clientVersion: 1, base: base, chain: chain, tipBase: base}, chainEstimate{direct: 100, composed: 100}, ReasonChain},
		{"lagging, direct over the rebase ratio", encodeSnapshot{distVersion: 2, held: true, clientVersion: 1, base: base, chain: chain, tipBase: base}, chainEstimate{direct: 501, composed: 900}, ReasonChain},
		{"evicted", encodeSnapshot{evicted: true}, chainEstimate{}, ReasonClassEvicted},
		{"never distributed", encodeSnapshot{}, chainEstimate{}, ReasonAnonPending},
		{"holds nothing", encodeSnapshot{distVersion: 3}, chainEstimate{}, ReasonNoBaseHeld},
		{"holds only pruned versions", encodeSnapshot{distVersion: 3, held: true}, chainEstimate{}, ReasonVersionAgedOut},
	} {
		if got := decide(c.snap, docLen, ratio, c.est); got != c.want {
			t.Errorf("%s: decide = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestReasonNames: every reason has a distinct label value, and only the
// two delta reasons are deltas.
func TestReasonNames(t *testing.T) {
	seen := make(map[string]bool)
	for r := ReasonDirect; r < numReasons; r++ {
		if name := r.String(); name == "" || seen[name] {
			t.Errorf("reason %d has empty or duplicate name %q", r, name)
		} else {
			seen[name] = true
		}
		if want := r == ReasonDirect || r == ReasonChain; r.delta() != want {
			t.Errorf("%v.delta() = %v", r, r.delta())
		}
	}
	if got := Reason(0).String(); got != "Reason(0)" {
		t.Errorf("zero reason prints %q", got)
	}
}

// processReason runs one request and checks that it was counted in
// exactly the reason cell it reports.
func processReason(t *testing.T, e *Engine, req Request) Response {
	t.Helper()
	before := e.reasonTotals()
	resp, err := e.Process(req)
	if err != nil {
		t.Fatal(err)
	}
	after := e.reasonTotals()
	for r := range after {
		want := before[r]
		if Reason(r) == resp.Reason {
			want++
		}
		if after[r] != want {
			t.Errorf("reason %v cell went %d -> %d serving a %v response", Reason(r), before[r], after[r], resp.Reason)
		}
	}
	if resp.Reason.delta() != (resp.Kind == KindDelta) {
		t.Errorf("kind %v with reason %v", resp.Kind, resp.Reason)
	}
	return resp
}

// reasonTotals sums every class's reason cells.
func (e *Engine) reasonTotals() reasonCounts {
	var sum cellSums
	for _, cs := range e.states() {
		sum.add(cs)
	}
	return sum.served
}

// exposed parses the engine's exposition and returns the samples of the
// named series by class label ("" for an unlabelled series).
func exposed(t *testing.T, e *Engine, name string) map[string]float64 {
	t.Helper()
	var b strings.Builder
	if err := e.Metrics().Expose(&b); err != nil {
		t.Fatal(err)
	}
	exp, err := metrics.ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("exposition does not parse: %v", err)
	}
	out := make(map[string]float64)
	for _, s := range exp.Samples {
		if s.Name == name {
			class, _ := s.Label("class")
			out[class] = s.Value
		}
	}
	return out
}

func wantReason(t *testing.T, resp Response, want Reason) {
	t.Helper()
	if resp.Reason != want {
		t.Fatalf("reason = %v (kind %v), want %v", resp.Reason, resp.Kind, want)
	}
}

// TestProcessReachesEveryFullReason drives each full reason through
// Process. encode_error needs a document over 2 GiB (the coder's only
// failure), so it is reached as a sharer of a leader's committed result.
func TestProcessReachesEveryFullReason(t *testing.T) {
	t.Run("anon_pending, no_base_held, class_evicted", func(t *testing.T) {
		e := newTestEngine(t, Config{Anon: anonymize.Config{M: 1, N: 3}})
		url := "www.shop.com/laptops/1"
		first := processReason(t, e, Request{URL: url, UserID: "u0", Doc: renderDoc("laptops", 1, 0, "u0")})
		wantReason(t, first, ReasonAnonPending)
		classID := warmClass(t, e, "laptops", 8)
		_, version, ok := e.LatestBase(classID)
		if !ok {
			t.Fatal("no base after warmup")
		}
		wantReason(t, processReason(t, e, Request{URL: url, UserID: "a", Doc: renderDoc("laptops", 1, 1, "a")}), ReasonNoBaseHeld)
		held := Request{URL: url, UserID: "b", Doc: renderDoc("laptops", 1, 2, "b"), HaveClassID: classID, HaveVersion: version}
		wantReason(t, processReason(t, e, held), ReasonDirect)
		if _, ok := e.EvictClass(classID); !ok {
			t.Fatal("evict failed")
		}
		// The evicted class re-warms from this request, but its new base
		// waits for anonymization: still a full, for the eviction.
		wantReason(t, processReason(t, e, held), ReasonClassEvicted)
	})

	t.Run("version_aged_out", func(t *testing.T) {
		e := graphEngine(t, 2, Config{})
		classID, latest := driveGenerations(t, e, 4)
		resp := processReason(t, e, Request{URL: "www.shop.com/graph/1", UserID: "u", Doc: docGen(4), HaveClassID: classID, HaveVersion: latest - 2})
		wantReason(t, resp, ReasonVersionAgedOut)
	})

	t.Run("delta_too_big, chain_not_smaller", func(t *testing.T) {
		// Unrelated generations: every install is a basic rebase and every
		// edge is as large as a document, so a client two versions behind
		// gets a chain (its direct estimate is over the ratio) that cannot
		// beat the document.
		e := newTestEngine(t, Config{
			DisableAnonymization: true,
			GraphDepth:           4,
			Selector:             basefile.Config{SampleProb: -1},
		})
		url := "www.shop.com/jump/1"
		gen := func(g int) []byte { return incompressible(uint64(g), 4000) }
		resp := processReason(t, e, Request{URL: url, UserID: "u", Doc: gen(1)})
		wantReason(t, resp, ReasonNoBaseHeld)
		classID := resp.ClassID
		for g := 2; g <= 3; g++ {
			resp = processReason(t, e, Request{URL: url, UserID: "u", Doc: gen(g), HaveClassID: classID, HaveVersion: g - 1})
			wantReason(t, resp, ReasonDeltaTooBig)
			if !resp.BasicRebase || resp.LatestVersion != g {
				t.Fatalf("generation %d: rebase=%v latest=%d, want a landed rebase to v%d", g, resp.BasicRebase, resp.LatestVersion, g)
			}
		}
		wantReason(t, processReason(t, e, Request{URL: url, UserID: "u", Doc: gen(3), HaveClassID: classID, HaveVersion: 3}), ReasonDirect)
		wantReason(t, processReason(t, e, Request{URL: url, UserID: "u", Doc: gen(3), HaveClassID: classID, HaveVersion: 1}), ReasonChainNotSmaller)
	})

	t.Run("encode_error", func(t *testing.T) {
		e, req := warmEngine(t, Config{Anon: anonymize.Config{M: 1, N: 2}, Selector: basefile.Config{SampleProb: -1}})
		cs, _ := e.lookup(req.HaveClassID)
		// Lead the request's memo key, let Process coalesce onto it, then
		// commit a failed encode: the sharer reports the leader's reason.
		key := deltacache.Key{From: req.HaveVersion, DocHash: maphash.Bytes(e.docSeed, req.Doc), DocLen: len(req.Doc)}
		_, fl, st := cs.deltas.Acquire(key)
		if st != deltacache.StatusLead {
			t.Fatalf("acquire = %v, want lead", st)
		}
		done := make(chan Response)
		go func() {
			resp, err := e.Process(req)
			if err != nil {
				t.Error(err)
			}
			done <- resp
		}()
		for cs.deltas.Stats().Coalesced == 0 {
			runtime.Gosched() // until Process has joined the flight
		}
		cs.deltas.Commit(fl, deltacache.Result{Reason: uint8(ReasonEncodeError)})
		resp := <-done
		wantReason(t, resp, ReasonEncodeError)
		if resp.Kind != KindFull || cs.served[ReasonEncodeError].Load() != 1 {
			t.Fatalf("kind %v, encode_error cell %d; want one full", resp.Kind, cs.served[ReasonEncodeError].Load())
		}
	})
}

// TestReasonCellsMatchResponses is the accounting invariant under mixed
// concurrent traffic — budget, spill tier, graph depth 4, anonymization,
// 8 clients that refresh their bases lazily so they lag, plus forced
// evictions: per class and engine-wide, the request cells, Stats,
// GraphStats, ClassStats and the exposition's per-class series agree with
// an independent tally of the calls issued, their document bytes and the
// responses returned with their wire bytes.
func TestReasonCellsMatchResponses(t *testing.T) {
	const (
		goroutines = 8
		perClient  = 60
	)
	e := newTestEngine(t, Config{
		Anon:          anonymize.Config{M: 1, N: 2},
		GraphDepth:    4,
		MaxDeltaRatio: 0.3,
		MemBudget:     96 << 10,
		SpillDir:      t.TempDir(),
		Selector:      basefile.Config{SampleProb: 0.5, MaxSamples: 4, Seed: 7},
	})
	defer e.Close()
	depts := []string{"laptops", "desktops", "phones"}

	type tally struct {
		calls, docBytes int64
		reasons, wire   reasonCounts // responses and their wire bytes, by reason
	}
	var mu sync.Mutex
	byClass := make(map[string]*tally)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			user := fmt.Sprintf("user-%d", g)
			held := make(map[string]int)
			for i := 0; i < perClient; i++ {
				dept := depts[(g+i)%len(depts)]
				item := i % 3
				req := Request{URL: fmt.Sprintf("www.shop.com/%s/%d", dept, item), UserID: user, Doc: renderDoc(dept, item, i/4, user)}
				for id, v := range held {
					req.Held = append(req.Held, HeldBase{ClassID: id, Version: v})
				}
				resp, err := e.Process(req)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Reason == 0 || resp.Reason >= numReasons || resp.Reason.delta() != (resp.Kind == KindDelta) {
					t.Errorf("response kind %v with reason %v", resp.Kind, resp.Reason)
				}
				mu.Lock()
				tl := byClass[resp.ClassID]
				if tl == nil {
					tl = &tally{}
					byClass[resp.ClassID] = tl
				}
				tl.calls++
				tl.docBytes += int64(len(req.Doc))
				tl.reasons[resp.Reason]++
				tl.wire[resp.Reason] += int64(resp.WireSize(len(req.Doc)))
				mu.Unlock()
				// Refresh lazily so clients fall behind, then catch up.
				if v := resp.LatestVersion; v > held[resp.ClassID] && (held[resp.ClassID] == 0 || i%5 == 0) {
					held[resp.ClassID] = v
				}
				if g == 0 && i%20 == 19 {
					e.EvictClass(resp.ClassID)
				}
			}
		}(g)
	}
	wg.Wait()
	e.Quiesce()

	requests := exposed(t, e, "cbde_class_requests_total")
	bytesIn := exposed(t, e, "cbde_class_bytes_in_total")
	shipped := exposed(t, e, "cbde_class_bytes_shipped_total")
	if len(requests) != len(byClass) || len(bytesIn) != len(byClass) || len(shipped) != len(byClass) {
		t.Errorf("exposition has %d/%d/%d classes, responses name %d", len(requests), len(bytesIn), len(shipped), len(byClass))
	}
	var all, allWire reasonCounts
	var calls, docBytes int64
	for id, tl := range byClass {
		for r := range tl.reasons {
			all[r] += tl.reasons[r]
			allWire[r] += tl.wire[r]
		}
		calls += tl.calls
		docBytes += tl.docBytes
		st, ok := e.ClassStats(id)
		if !ok {
			t.Fatalf("class %s missing", id)
		}
		cs, _ := e.lookup(id)
		var cells cellSums
		cells.add(cs)
		if cells.served != tl.reasons || cells.shipped != tl.wire || cells.bytesIn != tl.docBytes {
			t.Errorf("class %s: cells %+v, tally %+v", id, cells, *tl)
		}
		if st.Requests != tl.calls || st.BytesIn != tl.docBytes || st.BytesShipped != tl.wire.total() {
			t.Errorf("class %s: stats %d requests, %d bytes in, %d shipped; tally %d, %d, %d",
				id, st.Requests, st.BytesIn, st.BytesShipped, tl.calls, tl.docBytes, tl.wire.total())
		}
		if requests[id] != float64(tl.calls) || bytesIn[id] != float64(tl.docBytes) || shipped[id] != float64(tl.wire.total()) {
			t.Errorf("class %s: exposition %v requests, %v bytes in, %v shipped; tally %d, %d, %d",
				id, requests[id], bytesIn[id], shipped[id], tl.calls, tl.docBytes, tl.wire.total())
		}
		if st.DeltaHits != tl.reasons.deltas() || st.DeltaMisses != tl.reasons.fulls() ||
			st.GraphDirect != tl.reasons[ReasonDirect] || st.GraphComposed != tl.reasons[ReasonChain] ||
			st.GraphFallback != tl.reasons[ReasonVersionAgedOut] {
			t.Errorf("class %s: stats %+v disagree with responses %v", id, st, tl.reasons)
		}
	}
	if got := e.reasonTotals(); got != all {
		t.Errorf("engine cells %v, responses %v", got, all)
	}
	st := e.Stats()
	if calls != goroutines*perClient || st.Requests != calls || st.DeltaResponses != all.deltas() || st.FullResponses != all.fulls() {
		t.Errorf("Stats: %d requests, %d delta, %d full; %d calls, responses %d delta, %d full",
			st.Requests, st.DeltaResponses, st.FullResponses, calls, all.deltas(), all.fulls())
	}
	if st.BytesDirect != docBytes || st.BytesDelta != allWire.deltas() || st.BytesFull != allWire.fulls() {
		t.Errorf("Stats bytes: direct %d, delta %d, full %d; tally %d, %d, %d",
			st.BytesDirect, st.BytesDelta, st.BytesFull, docBytes, allWire.deltas(), allWire.fulls())
	}
	if saved := exposed(t, e, "cbde_bytes_saved_total")[""]; saved != float64(docBytes-allWire.total()) {
		t.Errorf("cbde_bytes_saved_total %v, tally %d", saved, docBytes-allWire.total())
	}
	gs := e.GraphStats()
	if gs.Direct != all[ReasonDirect] || gs.Composed != all[ReasonChain] || gs.FallbackFull != all[ReasonVersionAgedOut] {
		t.Errorf("GraphStats %+v disagree with responses %v", gs, all)
	}
	if all.deltas() == 0 || all.fulls() == 0 {
		t.Errorf("responses %v: want both deltas and fulls exercised", all)
	}
	t.Logf("responses by reason: %v", all)
}
