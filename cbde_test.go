package cbde_test

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"cbde"
	"cbde/internal/origin"
)

// newFacadeChain wires the full deployment through the public facade only.
func newFacadeChain(t *testing.T) (*origin.Site, *cbde.Engine, string) {
	t.Helper()
	site := origin.NewSite(origin.Config{
		Host:          "www.facade.com",
		Depts:         []origin.Dept{{Name: "catalog", Items: 6}},
		TemplateBytes: 9000,
		ItemBytes:     900,
		ChurnBytes:    300,
		Personalized:  true,
		Seed:          12,
	})
	originSrv := httptest.NewServer(site.Handler())
	t.Cleanup(originSrv.Close)

	base := time.Unix(5_000_000, 0)
	n := 0
	eng, err := cbde.NewEngine(cbde.Config{
		Now: func() time.Time { n++; return base.Add(time.Duration(n) * time.Second) },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cbde.NewServer(originSrv.URL, eng, cbde.WithPublicHost("www.facade.com"))
	if err != nil {
		t.Fatal(err)
	}
	srvHTTP := httptest.NewServer(srv)
	t.Cleanup(srvHTTP.Close)

	proxy, err := cbde.NewProxyCache(srvHTTP.URL)
	if err != nil {
		t.Fatal(err)
	}
	proxyHTTP := httptest.NewServer(proxy)
	t.Cleanup(proxyHTTP.Close)
	return site, eng, proxyHTTP.URL
}

func TestFacadeEndToEnd(t *testing.T) {
	site, eng, url := newFacadeChain(t)

	for i := 0; i < 8; i++ {
		cl := cbde.NewClient(url, cbde.WithUser(fmt.Sprintf("warm-%d", i)))
		if _, err := cl.Get("/catalog/0"); err != nil {
			t.Fatal(err)
		}
	}
	cl := cbde.NewClient(url, cbde.WithUser("alice"))
	if _, err := cl.Get("/catalog/0"); err != nil {
		t.Fatal(err)
	}
	doc, err := cl.Get("/catalog/0")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := site.Render("catalog", 0, "alice", site.Tick())
	if !bytes.Equal(doc, want) {
		t.Error("facade chain reconstruction mismatch")
	}
	if cl.Stats().DeltaResponses == 0 {
		t.Error("no deltas through the facade chain")
	}
	st := eng.Stats()
	if st.Mode != cbde.ModeClassBased {
		t.Errorf("mode = %v", st.Mode)
	}
	if st.Requests == 0 || st.Savings() <= 0 {
		t.Errorf("stats not accumulating: %+v", st)
	}
}

func TestFacadeEngineDirect(t *testing.T) {
	eng, err := cbde.NewEngine(cbde.Config{Mode: cbde.ModeClassless})
	if err != nil {
		t.Fatal(err)
	}
	doc := bytes.Repeat([]byte("a dynamic document body line\n"), 100)
	resp, err := eng.Process(cbde.Request{URL: "www.x.com/a/1", UserID: "u", Doc: doc})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != cbde.KindFull {
		t.Errorf("first response kind = %v", resp.Kind)
	}
	resp2, err := eng.Process(cbde.Request{
		URL: "www.x.com/a/1", UserID: "u", Doc: append(doc, " changed"...),
		Held: []cbde.HeldBase{{ClassID: resp.ClassID, Version: resp.LatestVersion}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Kind != cbde.KindDelta {
		t.Fatalf("second response kind = %v", resp2.Kind)
	}
	base, _ := eng.BaseFile(resp.ClassID, resp2.BaseVersion)
	got, err := eng.Decode(base, resp2.Payload, resp2.Gzipped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, append(doc, " changed"...)) {
		t.Error("facade decode mismatch")
	}
}

// TestServerRestartRecovery models a delta-server losing its in-memory
// state (restart): clients holding now-unknown bases must degrade to full
// responses and then re-converge to deltas.
func TestServerRestartRecovery(t *testing.T) {
	site := origin.NewSite(origin.Config{
		Host:          "www.restart.com",
		Depts:         []origin.Dept{{Name: "catalog", Items: 3}},
		TemplateBytes: 6000,
		Seed:          3,
	})
	originSrv := httptest.NewServer(site.Handler())
	t.Cleanup(originSrv.Close)

	mkServer := func() *httptest.Server {
		base := time.Unix(9_000_000, 0)
		n := 0
		eng, err := cbde.NewEngine(cbde.Config{
			Now: func() time.Time { n++; return base.Add(time.Duration(n) * time.Second) },
		})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := cbde.NewServer(originSrv.URL, eng, cbde.WithPublicHost("www.restart.com"))
		if err != nil {
			t.Fatal(err)
		}
		return httptest.NewServer(srv)
	}

	first := mkServer()
	for i := 0; i < 8; i++ {
		cl := cbde.NewClient(first.URL, cbde.WithUser(fmt.Sprintf("w%d", i)))
		if _, err := cl.Get("/catalog/0"); err != nil {
			t.Fatal(err)
		}
	}
	cl := cbde.NewClient(first.URL, cbde.WithUser("survivor"))
	if _, err := cl.Get("/catalog/0"); err != nil {
		t.Fatal(err)
	}
	first.Close()

	// "Restart": a fresh engine with empty state behind a new listener.
	second := mkServer()
	defer second.Close()
	cl2 := cbde.NewClient(second.URL, cbde.WithUser("survivor"))
	doc, err := cl2.Get("/catalog/0")
	if err != nil {
		t.Fatalf("request against restarted server failed: %v", err)
	}
	want, _ := site.Render("catalog", 0, "survivor", site.Tick())
	if !bytes.Equal(doc, want) {
		t.Error("document wrong after restart")
	}
	// Warm the new instance; deltas must flow again.
	for i := 0; i < 8; i++ {
		wcl := cbde.NewClient(second.URL, cbde.WithUser(fmt.Sprintf("n%d", i)))
		if _, err := wcl.Get("/catalog/0"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := cl2.Get("/catalog/0"); err != nil {
		t.Fatal(err)
	}
	if _, err := cl2.Get("/catalog/0"); err != nil {
		t.Fatal(err)
	}
	if cl2.Stats().DeltaResponses == 0 {
		t.Error("client never re-converged to deltas after restart")
	}
}

// TestServerRestartWithPersistedState is the persistence counterpart of
// TestServerRestartRecovery: restarted on the spill directory the first
// instance checkpointed into, the server keeps serving deltas immediately
// — no re-warmup, no re-anonymization.
func TestServerRestartWithPersistedState(t *testing.T) {
	site := origin.NewSite(origin.Config{
		Host:          "www.persist.com",
		Depts:         []origin.Dept{{Name: "catalog", Items: 3}},
		TemplateBytes: 6000,
		Seed:          4,
	})
	originSrv := httptest.NewServer(site.Handler())
	t.Cleanup(originSrv.Close)

	spillDir := t.TempDir()
	mkEngine := func() *cbde.Engine {
		base := time.Unix(8_000_000, 0)
		n := 0
		eng, err := cbde.NewEngine(cbde.Config{
			SpillDir: spillDir,
			Now:      func() time.Time { n++; return base.Add(time.Duration(n) * time.Second) },
		})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	mkServer := func(eng *cbde.Engine) *httptest.Server {
		srv, err := cbde.NewServer(originSrv.URL, eng, cbde.WithPublicHost("www.persist.com"))
		if err != nil {
			t.Fatal(err)
		}
		return httptest.NewServer(srv)
	}

	engA := mkEngine()
	first := mkServer(engA)
	for i := 0; i < 8; i++ {
		cl := cbde.NewClient(first.URL, cbde.WithUser(fmt.Sprintf("w%d", i)))
		if _, err := cl.Get("/catalog/0"); err != nil {
			t.Fatal(err)
		}
	}
	cl := cbde.NewClient(first.URL, cbde.WithUser("keeper"))
	if _, err := cl.Get("/catalog/0"); err != nil {
		t.Fatal(err)
	}

	// Drain, checkpoint, close: the shutdown order of cmd/deltaserver.
	first.Close()
	if n, err := engA.Checkpoint(); err != nil || n == 0 {
		t.Fatalf("Checkpoint = (%d, %v), want at least one class", n, err)
	}
	if err := engA.Close(); err != nil {
		t.Fatal(err)
	}

	engB := mkEngine()
	defer engB.Close()
	second := mkServer(engB)
	defer second.Close()

	// A client cannot be re-pointed at another URL, so cl2 starts without a
	// base: its first request faults the class in and learns the recovered
	// version, and the one after that must already be a delta.
	cl2 := cbde.NewClient(second.URL, cbde.WithUser("keeper"))
	doc, err := cl2.Get("/catalog/0")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := site.Render("catalog", 0, "keeper", site.Tick())
	if !bytes.Equal(doc, want) {
		t.Error("restored server returned a wrong document")
	}
	// Delta on the very next request: state carried over, no re-warmup.
	if _, err := cl2.Get("/catalog/0"); err != nil {
		t.Fatal(err)
	}
	if cl2.Stats().DeltaResponses == 0 {
		t.Error("restored server did not serve deltas immediately")
	}
	if ts := engB.SpillStats(); ts.FaultIns == 0 {
		t.Errorf("restarted engine never faulted a class in: %+v", ts)
	}
}
