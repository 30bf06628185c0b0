package loadgen

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cbde/internal/anonymize"
	"cbde/internal/core"
	"cbde/internal/deltaclient"
	"cbde/internal/deltaserver"
	"cbde/internal/origin"
)

func newServer(t *testing.T) string {
	t.Helper()
	site := origin.NewSite(origin.Config{
		Host:          "www.load.com",
		Depts:         []origin.Dept{{Name: "catalog", Items: 4}},
		TemplateBytes: 6000,
		ItemBytes:     500,
		ChurnBytes:    200,
		Seed:          44,
	})
	originSrv := httptest.NewServer(site.Handler())
	t.Cleanup(originSrv.Close)

	base := time.Unix(7_000_000, 0)
	var mu sync.Mutex
	n := 0
	eng, err := core.NewEngine(core.Config{
		Anon: anonymize.Config{M: 1, N: 2},
		Now: func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			n++
			return base.Add(time.Duration(n) * time.Second)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := deltaserver.New(originSrv.URL, eng, deltaserver.WithPublicHost("www.load.com"))
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(srv)
	t.Cleanup(front.Close)

	// Finish anonymization so the run measures the steady state.
	for i := 0; i < 4; i++ {
		cl := deltaclient.New(front.URL, deltaclient.WithUser(fmt.Sprintf("warm-%d", i)))
		if _, err := cl.Get("/catalog/0"); err != nil {
			t.Fatal(err)
		}
	}
	return front.URL
}

func TestRunBasics(t *testing.T) {
	url := newServer(t)
	res, err := Run(Config{
		ServerURL:         url,
		Paths:             []string{"/catalog/0", "/catalog/1"},
		Clients:           4,
		RequestsPerClient: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 40 {
		t.Errorf("requests = %d, want 40", res.Requests)
	}
	if res.Errors != 0 {
		t.Errorf("errors = %d", res.Errors)
	}
	if res.DeltaResponses == 0 {
		t.Error("no delta responses under load")
	}
	if res.RPS() <= 0 {
		t.Error("no throughput measured")
	}
	if res.LatencyP50 <= 0 || res.LatencyP99 < res.LatencyP50 {
		t.Errorf("latency percentiles implausible: p50=%v p99=%v", res.LatencyP50, res.LatencyP99)
	}
	if res.Savings() <= 0 {
		t.Errorf("savings = %.2f, want positive", res.Savings())
	}
	out := res.String()
	for _, want := range []string{"req/s", "p95", "deltas"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

// TestRunVerifyUnderBudget drives a budgeted delta-server with more classes
// than its budget holds while byte-comparing every reconstruction against a
// plain re-fetch: eviction churn must never corrupt a served document. This
// is the in-process twin of CI's store-smoke job.
func TestRunVerifyUnderBudget(t *testing.T) {
	site := origin.NewSite(origin.Config{
		Host:          "www.load.com",
		Depts:         []origin.Dept{{Name: "catalog", Items: 3}, {Name: "outlet", Items: 3}},
		TemplateBytes: 6000,
		ItemBytes:     500,
		ChurnBytes:    200,
		Seed:          45,
	})
	originSrv := httptest.NewServer(site.Handler())
	t.Cleanup(originSrv.Close)
	eng, err := core.NewEngine(core.Config{
		MemBudget:            8 << 10,
		DisableAnonymization: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := deltaserver.New(originSrv.URL, eng, deltaserver.WithPublicHost("www.load.com"))
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(srv)
	t.Cleanup(front.Close)

	res, err := Run(Config{
		ServerURL:         front.URL,
		Paths:             []string{"/catalog/0", "/catalog/1", "/catalog/2", "/outlet/0", "/outlet/1", "/outlet/2"},
		Clients:           4,
		RequestsPerClient: 30,
		Verify:            true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("errors = %d", res.Errors)
	}
	if res.Mismatches != 0 {
		t.Errorf("mismatches = %d: eviction churn corrupted served documents", res.Mismatches)
	}
	st := eng.StoreStats()
	if st.Evictions == 0 {
		t.Errorf("no evictions; the budget never bit (store stats: %+v)", st)
	}
	if st.Resident.Total > 8<<10 {
		t.Errorf("resident bytes %d exceed budget after run", st.Resident.Total)
	}
}

func TestRunErrorsCounted(t *testing.T) {
	// Nothing listening: every request errors but the run completes.
	res, err := Run(Config{
		ServerURL:         "http://127.0.0.1:1",
		Paths:             []string{"/x"},
		Clients:           2,
		RequestsPerClient: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 6 {
		t.Errorf("errors = %d, want 6", res.Errors)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{Paths: []string{"/x"}}); err == nil {
		t.Error("missing server accepted")
	}
	if _, err := Run(Config{ServerURL: "http://x"}); err == nil {
		t.Error("missing paths accepted")
	}
	cfg, err := Config{ServerURL: "http://x", Paths: []string{"/x"}}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Clients != 8 || cfg.RequestsPerClient != 50 || cfg.UserPrefix != "load" {
		t.Errorf("defaults wrong: %+v", cfg)
	}
}

// TestRunDiurnalVerifyWithSpill alternates traffic between two halves of
// the path set against a tightly budgeted, spill-enabled delta-server: the
// idle half's classes evict to disk, then fault back in when their phase
// returns — every reconstruction byte-compared against a plain re-fetch.
// This is the in-process twin of CI's spill-smoke job.
func TestRunDiurnalVerifyWithSpill(t *testing.T) {
	site := origin.NewSite(origin.Config{
		Host:          "www.load.com",
		Depts:         []origin.Dept{{Name: "catalog", Items: 3}, {Name: "outlet", Items: 3}},
		TemplateBytes: 6000,
		ItemBytes:     500,
		ChurnBytes:    200,
		Seed:          46,
	})
	originSrv := httptest.NewServer(site.Handler())
	t.Cleanup(originSrv.Close)
	eng, err := core.NewEngine(core.Config{
		MemBudget:            8 << 10,
		SpillDir:             t.TempDir(),
		DisableAnonymization: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	srv, err := deltaserver.New(originSrv.URL, eng, deltaserver.WithPublicHost("www.load.com"))
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(srv)
	t.Cleanup(front.Close)

	res, err := Run(Config{
		ServerURL:         front.URL,
		Paths:             []string{"/catalog/0", "/catalog/1", "/catalog/2", "/outlet/0", "/outlet/1", "/outlet/2"},
		Clients:           4,
		RequestsPerClient: 40,
		DiurnalCycles:     3,
		Verify:            true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Errorf("errors = %d", res.Errors)
	}
	if res.Mismatches != 0 {
		t.Errorf("mismatches = %d: spill/fault-in churn corrupted served documents", res.Mismatches)
	}
	ts := eng.SpillStats()
	if ts.Spills == 0 || ts.FaultIns == 0 {
		t.Errorf("diurnal churn never hit the disk tier: %+v", ts)
	}
	if st := eng.StoreStats(); st.Resident.Total > 8<<10 {
		t.Errorf("resident bytes %d exceed budget after run", st.Resident.Total)
	}
}
