package core

import (
	"bytes"
	"fmt"
	"testing"

	"cbde/internal/anonymize"
	"cbde/internal/basefile"
	"cbde/internal/vdelta"
)

func TestCodecOptionsRespected(t *testing.T) {
	// A coarse codec must still round-trip end to end.
	e := newTestEngine(t, Config{
		Anon:  anonymize.Config{M: 1, N: 3},
		Codec: []vdelta.Option{vdelta.WithChunkSize(32), vdelta.WithTargetMatching(false)},
	})
	classID := warmClass(t, e, "laptops", 8)
	base, version, _ := e.LatestBase(classID)
	doc := renderDoc("laptops", 2, 44, "coarse")
	resp, err := e.Process(Request{
		URL: "www.shop.com/laptops/2", UserID: "coarse", Doc: doc,
		HaveClassID: classID, HaveVersion: version,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindDelta {
		t.Fatalf("kind = %v", resp.Kind)
	}
	got, err := e.Decode(base, resp.Payload, resp.Gzipped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, doc) {
		t.Error("coarse codec round trip failed")
	}
}

func TestHeldListMatchesClass(t *testing.T) {
	e := newTestEngine(t, Config{Anon: anonymize.Config{M: 1, N: 3}})
	classID := warmClass(t, e, "laptops", 8)
	_, version, _ := e.LatestBase(classID)

	doc := renderDoc("laptops", 1, 55, "lister")
	resp, err := e.Process(Request{
		URL: "www.shop.com/laptops/1", UserID: "lister", Doc: doc,
		Held: []HeldBase{
			{ClassID: "bogus", Version: 9},
			{ClassID: classID, Version: version},
			{ClassID: "other", Version: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindDelta {
		t.Errorf("held list not matched: kind = %v", resp.Kind)
	}
	if resp.BaseVersion != version {
		t.Errorf("delta against v%d, want v%d", resp.BaseVersion, version)
	}
}

func TestHeldPrefersNewestStoredVersion(t *testing.T) {
	clock := newTestClock()
	e := newTestEngine(t, Config{
		DisableAnonymization: true,
		GraphDepth:           3,
		MaxDeltaRatio:        0.9,
		Now:                  clock.Now,
	})
	// Build two versions via basic-rebase.
	var classID string
	have := 0
	for i := 0; i < 10; i++ {
		doc := incompressible(uint64(i/5)+1, 4000)
		resp, err := e.Process(Request{
			URL: "www.shop.com/v/1", UserID: "u", Doc: doc,
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
		t.Fatalf("expected at least 2 versions, got %d", have)
	}
	doc := incompressible(2, 4000)
	resp, err := e.Process(Request{
		URL: "www.shop.com/v/1", UserID: "u", Doc: doc,
		Held: []HeldBase{
			{ClassID: classID, Version: have - 1},
			{ClassID: classID, Version: have},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind == KindDelta && resp.BaseVersion != have {
		t.Errorf("delta against v%d, want newest held v%d", resp.BaseVersion, have)
	}
}

func TestClasslessBasicRebaseServesNewVersionImmediately(t *testing.T) {
	clock := newTestClock()
	e := newTestEngine(t, Config{
		Mode:          ModeClassless,
		MaxDeltaRatio: 0.2,
		Now:           clock.Now,
	})
	// First request installs v1.
	resp, err := e.Process(Request{URL: "www.shop.com/d/1", UserID: "u", Doc: incompressible(1, 4000)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.LatestVersion != 1 {
		t.Fatalf("v = %d, want 1", resp.LatestVersion)
	}
	// Alien content with the old base advertised: basic-rebase, and the
	// new version is immediately distributable (no anonymization).
	resp, err = e.Process(Request{
		URL: "www.shop.com/d/1", UserID: "u", Doc: incompressible(99, 4000),
		HaveClassID: resp.ClassID, HaveVersion: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.BasicRebase {
		t.Fatal("expected basic-rebase")
	}
	if resp.LatestVersion != 2 {
		t.Errorf("LatestVersion = %d, want 2 immediately", resp.LatestVersion)
	}
	if _, ok := e.BaseFile(resp.ClassID, 2); !ok {
		t.Error("new version not fetchable")
	}
}

func TestMetricsExposed(t *testing.T) {
	e := newTestEngine(t, Config{Anon: anonymize.Config{M: 1, N: 2}})
	warmClass(t, e, "laptops", 4)
	snap := e.Metrics().Snapshot()
	if snap == "" {
		t.Error("empty metrics snapshot")
	}
	var requests float64
	for _, n := range exposed(t, e, "cbde_class_requests_total") {
		requests += n
	}
	if requests != 4 {
		t.Errorf("cbde_class_requests_total sums to %v, want 4", requests)
	}
}

func TestAnonymizationRestartsOnMidFlightRebase(t *testing.T) {
	// A group-rebase while anonymization is still in progress must restart
	// the process on the new base (the paper: the previous anonymized base
	// keeps serving; here there is none yet, so fulls continue) and the
	// first distributed version is the rebased one.
	e := newTestEngine(t, Config{
		Anon:     anonymize.Config{M: 1, N: 4},
		Selector: basefile.Config{SampleProb: 1, MaxSamples: 4, Seed: 2},
	})

	// First doc (an outlier) becomes base v1 and starts anonymization.
	alien := incompressible(5, 6000)
	if _, err := e.Process(Request{URL: "www.shop.com/laptops/1", UserID: "u0", Doc: alien}); err != nil {
		t.Fatal(err)
	}
	// Similar docs arrive; the selector rebases away from the outlier
	// while the outlier's anonymization has not finished (N=4).
	for i := 1; i <= 8; i++ {
		user := fmt.Sprintf("u%d", i)
		doc := renderDoc("laptops", 1, i, user)
		if _, err := e.Process(Request{URL: "www.shop.com/laptops/1", UserID: user, Doc: doc}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.GroupRebases == 0 {
		t.Fatal("expected a group-rebase away from the outlier")
	}
	if st.AnonStarted < 2 {
		t.Errorf("AnonStarted = %d, want >= 2 (restart on rebase)", st.AnonStarted)
	}
	// The eventually distributed base is the rebased one, not the outlier.
	resp, err := e.Process(Request{
		URL: "www.shop.com/laptops/1", UserID: "u99",
		Doc: renderDoc("laptops", 1, 99, "u99"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.LatestVersion == 0 {
		t.Fatal("no base distributed after rebase + anonymization")
	}
	base, _ := e.BaseFile(resp.ClassID, resp.LatestVersion)
	if bytes.Contains(base, alien[:64]) {
		t.Error("distributed base still derives from the outlier")
	}
}

// TestRouteErrorSkipsAccounting: an unroutable request gets no response,
// so it must not inflate the capacity numbers.
func TestRouteErrorSkipsAccounting(t *testing.T) {
	e := newTestEngine(t, Config{})
	if _, err := e.Process(Request{URL: "://bad", UserID: "u", Doc: []byte("doc")}); err == nil {
		t.Fatal("expected partition error for unroutable URL")
	}
	st := e.Stats()
	if st.Requests != 0 || st.BytesDirect != 0 {
		t.Fatalf("unroutable request was accounted: requests=%d bytesDirect=%d",
			st.Requests, st.BytesDirect)
	}
	if _, err := e.Process(Request{
		URL: "www.shop.com/laptops/1", UserID: "u",
		Doc: renderDoc("laptops", 1, 0, "u"),
	}); err != nil {
		t.Fatal(err)
	}
	st = e.Stats()
	if st.Requests != 1 {
		t.Fatalf("requests = %d after one routable request, want 1", st.Requests)
	}
}
