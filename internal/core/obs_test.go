package core

import (
	"fmt"
	"strings"
	"testing"

	"cbde/internal/anonymize"
	"cbde/internal/basefile"
	"cbde/internal/metrics"
	"cbde/internal/obs"
	"cbde/internal/origin"
	"cbde/internal/testutil"
)

// warmEngine builds an engine plus a warm class with a distributable base
// and returns a request that yields a delta response.
func warmEngine(t testing.TB, cfg Config) (*Engine, Request) {
	t.Helper()
	if cfg.Now == nil {
		cfg.Now = monotonicClock()
	}
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	site := origin.NewSite(origin.Config{
		Host:          "www.obs.com",
		Depts:         []origin.Dept{{Name: "catalog", Items: 2}},
		TemplateBytes: 30000,
		ItemBytes:     3000,
		ChurnBytes:    1500,
		Seed:          4242,
	})
	const url = "www.obs.com/catalog/0"
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
	doc, err := site.Render("catalog", 0, "", 10)
	if err != nil {
		t.Fatal(err)
	}
	return eng, Request{
		URL: url, UserID: "obs", Doc: doc,
		HaveClassID: resp.ClassID, HaveVersion: resp.LatestVersion,
	}
}

func TestProcessTracedProducesSummary(t *testing.T) {
	// The delta cache is off so the repeated request below re-runs the
	// encode and gzip stages; memo-stage tracing is covered by the memo
	// cache tests.
	eng, req := warmEngine(t, Config{Anon: anonymize.Config{M: 1, N: 2}, DeltaCacheOff: true})

	// Tracing off (the default): no summary, no per-stage observations.
	resp, err := eng.Process(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace != nil {
		t.Fatalf("tracing disabled but Response.Trace = %v", resp.Trace)
	}
	if n := eng.procHist.Count(); n != 0 {
		t.Fatalf("process histogram has %d observations with tracing off", n)
	}

	eng.SetTracing(true)
	if !eng.TracingEnabled() {
		t.Fatal("SetTracing(true) did not enable tracing")
	}
	resp, err = eng.Process(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindDelta {
		t.Fatalf("expected delta response, got %v", resp.Kind)
	}
	if resp.Trace == nil {
		t.Fatal("tracing enabled but Response.Trace is nil")
	}
	sum := resp.Trace
	if sum.Total <= 0 {
		t.Errorf("trace total = %v, want > 0", sum.Total)
	}
	enc := sum.Stages[obs.StageEncode]
	if enc.Dur <= 0 || enc.Bytes <= 0 {
		t.Errorf("encode span = %+v, want positive duration and bytes", enc)
	}
	if gz := sum.Stages[obs.StageGzip]; gz.Bytes <= 0 {
		t.Errorf("gzip span = %+v, want positive bytes", gz)
	}
	if sel := sum.Stages[obs.StageSelect]; sel.Dur <= 0 {
		t.Errorf("select span = %+v, want positive duration", sel)
	}
	if rt := sum.Stages[obs.StageRoute]; rt.Bytes != int64(len(req.Doc)) {
		t.Errorf("route span bytes = %d, want the document size %d", rt.Bytes, len(req.Doc))
	}
	if n := eng.procHist.Count(); n != 1 {
		t.Errorf("process histogram observations = %d, want 1", n)
	}
	if n := eng.stageHist[obs.StageEncode].Count(); n != 1 {
		t.Errorf("encode stage histogram observations = %d, want 1", n)
	}

	eng.SetTracing(false)
	resp, err = eng.Process(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Trace != nil {
		t.Error("tracing re-disabled but Response.Trace is non-nil")
	}
}

// TestProcessTracingDisabledStaysInAllocBudget enforces the tentpole's
// no-op guarantee: after tracing has been exercised and switched back off,
// the warm-class serving path must still clear the PR-3 allocation budget
// (the tracer adds at most an atomic load, never an allocation).
func TestProcessTracingDisabledStaysInAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	eng, req := warmEngine(t, Config{
		Anon:     anonymize.Config{M: 1, N: 2},
		Selector: basefile.Config{SampleProb: -1},
	})
	eng.SetTracing(true)
	for i := 0; i < 5; i++ {
		if _, err := eng.Process(req); err != nil {
			t.Fatal(err)
		}
	}
	eng.SetTracing(false)
	for i := 0; i < 5; i++ { // re-warm pools without tracing
		if _, err := eng.Process(req); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := eng.Process(req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > processWarmAllocBudget {
		t.Errorf("Process with tracing disabled allocates %.1f objects/op, budget %d",
			allocs, processWarmAllocBudget)
	}
	t.Logf("Process allocations after tracing on->off: %.1f objects/op (budget %d)",
		allocs, processWarmAllocBudget)
}

func TestClassStatsTable(t *testing.T) {
	eng, req := warmEngine(t, Config{Anon: anonymize.Config{M: 1, N: 2}})
	var delta, full int64
	var shipped int64
	for i := 0; i < 3; i++ {
		resp, err := eng.Process(req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Kind == KindDelta {
			delta++
			shipped += int64(len(resp.Payload))
		} else {
			full++
			shipped += int64(len(req.Doc))
		}
	}

	st, ok := eng.ClassStats(req.HaveClassID)
	if !ok {
		t.Fatalf("ClassStats(%q) not found", req.HaveClassID)
	}
	if st.ID != req.HaveClassID {
		t.Errorf("stats ID = %q, want %q", st.ID, req.HaveClassID)
	}
	// 4 warmup requests + 3 measured ones.
	if st.Requests != 7 {
		t.Errorf("requests = %d, want 7", st.Requests)
	}
	if st.DeltaHits != delta {
		t.Errorf("delta hits = %d, want %d", st.DeltaHits, delta)
	}
	if st.DeltaHits+st.DeltaMisses != st.Requests {
		t.Errorf("hits %d + misses %d != requests %d", st.DeltaHits, st.DeltaMisses, st.Requests)
	}
	if st.BytesIn <= 0 || st.BytesShipped <= 0 {
		t.Errorf("bytes in/shipped = %d/%d, want positive", st.BytesIn, st.BytesShipped)
	}
	if st.BytesShipped >= st.BytesIn {
		t.Errorf("shipped %d >= in %d: a warm delta class must save bytes", st.BytesShipped, st.BytesIn)
	}
	if s := st.Savings(); s <= 0 || s >= 1 {
		t.Errorf("savings = %v, want in (0, 1)", s)
	}
	if st.BaseVersion == 0 || st.BaseBytes == 0 {
		t.Errorf("base version/bytes = %d/%d, want non-zero", st.BaseVersion, st.BaseBytes)
	}
	if st.BaseAge <= 0 {
		t.Errorf("base age = %v, want > 0 under the deterministic clock", st.BaseAge)
	}

	if _, ok := eng.ClassStats("no-such-class"); ok {
		t.Error("ClassStats on unknown class reported ok")
	}
	all := eng.AllClassStats()
	if len(all) != 1 || all[0].ID != st.ID {
		t.Errorf("AllClassStats = %+v, want the one warm class", all)
	}
}

func TestClassStatsAnonProgress(t *testing.T) {
	eng, err := NewEngine(Config{
		Anon: anonymize.Config{M: 1, N: 5},
		Now:  monotonicClock(),
	})
	if err != nil {
		t.Fatal(err)
	}
	site := origin.NewSite(origin.Config{
		Host:          "www.anonobs.com",
		Depts:         []origin.Dept{{Name: "d", Items: 1}},
		TemplateBytes: 20000,
		Seed:          7,
	})
	var classID string
	// Two distinct users: the anonymization process (N=5) stays in flight.
	for u := 0; u < 2; u++ {
		doc, err := site.Render("d", 0, "", u)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := eng.Process(Request{URL: "www.anonobs.com/d/0", UserID: fmt.Sprintf("u%d", u), Doc: doc})
		if err != nil {
			t.Fatal(err)
		}
		classID = resp.ClassID
	}
	st, ok := eng.ClassStats(classID)
	if !ok {
		t.Fatal("class not found")
	}
	if !st.AnonActive {
		t.Fatal("expected an in-flight anonymization process")
	}
	if st.AnonNeeded != 5 {
		t.Errorf("anon needed = %d, want 5", st.AnonNeeded)
	}
	if st.AnonDone <= 0 || st.AnonDone >= st.AnonNeeded {
		t.Errorf("anon done = %d, want in (0, %d)", st.AnonDone, st.AnonNeeded)
	}
	if st.BaseVersion != 0 {
		t.Errorf("base version = %d, want 0 while anonymization is pending", st.BaseVersion)
	}
}

// TestEngineExpositionSeries checks the acceptance-criteria series: the
// engine's registry must expose parseable Prometheus text with per-class
// delta-hit, bytes-saved, and per-stage latency series.
func TestEngineExpositionSeries(t *testing.T) {
	eng, req := warmEngine(t, Config{Anon: anonymize.Config{M: 1, N: 2}})
	eng.SetTracing(true)
	if _, err := eng.Process(req); err != nil {
		t.Fatal(err)
	}

	var b strings.Builder
	if err := eng.Metrics().Expose(&b); err != nil {
		t.Fatal(err)
	}
	exp, err := metrics.ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("engine exposition does not parse: %v\n%s", err, b.String())
	}
	for _, series := range []string{
		"cbde_class_requests_total",
		"cbde_class_delta_hits_total",
		"cbde_class_delta_misses_total",
		"cbde_class_bytes_in_total",
		"cbde_class_bytes_shipped_total",
		"cbde_class_base_version",
		"cbde_class_base_age_seconds",
		"cbde_bytes_saved_total",
		"cbde_classes",
		"cbde_stage_duration_seconds_bucket",
		"cbde_stage_duration_seconds_sum",
		"cbde_stage_duration_seconds_count",
		"cbde_process_duration_seconds_bucket",
		"cbde_encode_target_bytes_total",
		"cbde_encode_replayed_bytes_total",
		"requests", // legacy plain counters stay exposed
		"bytes_direct",
	} {
		if !exp.Series(series) {
			t.Errorf("exposition missing series %s", series)
		}
	}
	// The per-class hit counter must carry the class label.
	found := false
	for _, s := range exp.Samples {
		if s.Name != "cbde_class_delta_hits_total" {
			continue
		}
		if v, ok := s.Label("class"); ok && v == req.HaveClassID && s.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no positive cbde_class_delta_hits_total sample for class %q", req.HaveClassID)
	}
	// Every stage child must pre-exist, even ones never exercised.
	stages := map[string]bool{}
	for _, s := range exp.Samples {
		if s.Name == "cbde_stage_duration_seconds_count" {
			if v, ok := s.Label("stage"); ok {
				stages[v] = true
			}
		}
	}
	for _, st := range obs.Stages() {
		if !stages[st.String()] {
			t.Errorf("stage series for %q missing from exposition", st)
		}
	}
}
