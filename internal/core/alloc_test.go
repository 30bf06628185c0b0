package core

import (
	"fmt"
	"testing"
	"time"

	"cbde/internal/anonymize"
	"cbde/internal/basefile"
	"cbde/internal/origin"
	"cbde/internal/testutil"
)

// processWarmAllocBudget bounds the steady-state allocation cost of serving
// one delta response from a warm class. The remaining per-request objects are
// the response payload itself (gzip output or the copied-out delta) and small
// routing strings from URL partitioning — measured at ~5 objects/op; encoder
// scratch and gzip state are pooled and must not show up here. The budget
// carries ~2x headroom over the measured count so it trips on a pooling
// regression, not on minor stdlib drift.
const processWarmAllocBudget = 10

func TestProcessWarmClassAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	eng, err := NewEngine(Config{
		Anon: anonymize.Config{M: 1, N: 2},
		// Disable candidate sampling so measurement sees the pure
		// route+encode path with no group-rebases mid-run.
		Selector: basefile.Config{SampleProb: -1},
		Now:      monotonicClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	site := origin.NewSite(origin.Config{
		Host:          "www.alloc.com",
		Depts:         []origin.Dept{{Name: "catalog", Items: 2}},
		TemplateBytes: 30000,
		ItemBytes:     3000,
		ChurnBytes:    1500,
		Seed:          9100,
	})
	const url = "www.alloc.com/catalog/0"
	var resp Response
	for u := 0; u < 4; u++ {
		doc, err := site.Render("catalog", 0, "", u)
		if err != nil {
			t.Fatal(err)
		}
		resp, err = eng.Process(Request{URL: url, UserID: fmt.Sprintf("warm%d", u), Doc: doc})
		if err != nil {
			t.Fatal(err)
		}
	}
	if resp.LatestVersion == 0 {
		t.Fatal("no distributable base after warmup")
	}
	classID, version := resp.ClassID, resp.LatestVersion
	doc, err := site.Render("catalog", 0, "", 10)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{URL: url, UserID: "alloc", Doc: doc, HaveClassID: classID, HaveVersion: version}
	// Warm the encode-scratch and gzip pools.
	for i := 0; i < 5; i++ {
		r, err := eng.Process(req)
		if err != nil {
			t.Fatal(err)
		}
		if r.Kind != KindDelta {
			t.Fatalf("expected delta response, got %v", r.Kind)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.Process(req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > processWarmAllocBudget {
		t.Errorf("Process allocates %.1f objects/op on a warm class, budget %d",
			allocs, processWarmAllocBudget)
	}
	t.Logf("Process warm-class allocations: %.1f objects/op (budget %d)", allocs, processWarmAllocBudget)
}

// monotonicClock returns a deterministic strictly-increasing clock so the
// engine never consults wall time (and never varies allocation behavior with
// the scheduler).
func monotonicClock() func() time.Time {
	base := time.Unix(1_000_000, 0)
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

// TestGzippedPayloadsHaveNoSlack: a gzipped delta stays resident in the memo
// and a gzipped edge in the version graph for as long as they are cached, so
// neither may carry spare capacity.
func TestGzippedPayloadsHaveNoSlack(t *testing.T) {
	for _, memo := range []bool{true, false} {
		eng, req := warmEngine(t, Config{
			Anon:          anonymize.Config{M: 1, N: 2},
			Selector:      basefile.Config{SampleProb: -1},
			DeltaCacheOff: !memo,
		})
		for i := 0; i < 2; i++ { // an encode, then (with the memo) a hit
			resp, err := eng.Process(req)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Kind != KindDelta || !resp.Gzipped {
				t.Fatalf("memo=%v: want a gzipped delta, got kind %v gzipped=%v", memo, resp.Kind, resp.Gzipped)
			}
			if cap(resp.Payload) != len(resp.Payload) {
				t.Errorf("memo=%v: %d-byte payload has capacity %d", memo, len(resp.Payload), cap(resp.Payload))
			}
		}
	}

	// Each generation appends text drawn from a small alphabet to a shared
	// incompressible template: the edge between two versions is that text,
	// which Huffman coding shrinks.
	genDoc := func(gen int) []byte {
		doc := incompressible(42, 4000)
		for i, b := range incompressible(uint64(gen)+100, 600) {
			doc = append(doc, "abcdefgh"[(int(b)+i)%8])
		}
		return doc
	}
	e := graphEngine(t, 4, Config{})
	classID, have := "", 0
	for g := 1; g <= 4; g++ {
		for r := 0; r < 2; r++ {
			resp, err := e.Process(Request{URL: "www.shop.com/graph/1", UserID: "u", Doc: genDoc(g), HaveClassID: classID, HaveVersion: have})
			if err != nil {
				t.Fatal(err)
			}
			classID, have = resp.ClassID, max(have, resp.LatestVersion)
		}
	}
	cs, _ := e.lookup(classID)
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	gzipped := 0
	for from, ge := range cs.edges {
		if ge.gzipped {
			gzipped++
			if cap(ge.payload) != len(ge.payload) {
				t.Errorf("edge %d->%d: %d-byte payload has capacity %d", from, ge.to, len(ge.payload), cap(ge.payload))
			}
		}
	}
	if gzipped == 0 {
		t.Fatalf("none of %d edges was gzipped", len(cs.edges))
	}
}
