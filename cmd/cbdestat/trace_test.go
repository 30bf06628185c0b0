package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cbde/internal/anonymize"
	"cbde/internal/basefile"
	"cbde/internal/cluster"
	"cbde/internal/core"
	"cbde/internal/deltahttp"
	"cbde/internal/deltaserver"
	"cbde/internal/flightrec"
	"cbde/internal/origin"
)

// tierStack boots a 2-node delta-server tier with flight recorders and
// returns the node front URLs plus the index of the node that does NOT own
// the test path's class (so hitting it forwards).
func tierStack(t *testing.T) (urls [2]string, entry int) {
	t.Helper()
	site := origin.NewSite(origin.Config{
		Host:          "www.stat.com",
		Style:         origin.StylePathSegments,
		Depts:         []origin.Dept{{Name: "d", Items: 8}},
		TemplateBytes: 20000,
		ItemBytes:     2000,
		Seed:          9,
	})
	originSrv := httptest.NewServer(site.Handler())
	t.Cleanup(originSrv.Close)

	var servers [2]*deltaserver.Server
	var fronts [2]*httptest.Server
	for i := range fronts {
		i := i
		fronts[i] = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			servers[i].ServeHTTP(w, r)
		}))
		t.Cleanup(fronts[i].Close)
		urls[i] = fronts[i].URL
	}
	peers := []cluster.Node{
		{ID: "n0", URL: urls[0]},
		{ID: "n1", URL: urls[1]},
	}
	clusters := make([]*cluster.Cluster, 2)
	for i := range servers {
		cl, err := cluster.New(cluster.Config{Self: peers[i].ID, Peers: peers})
		if err != nil {
			t.Fatal(err)
		}
		clusters[i] = cl
		eng, err := core.NewEngine(core.Config{
			Anon: anonymize.Config{M: 1, N: 2},
			Selector: basefile.Config{
				VersionStride: cl.Size(),
				VersionOffset: cl.SelfIndex(),
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		eng.SetTracing(true)
		srv, err := deltaserver.New(originSrv.URL, eng,
			deltaserver.WithPublicHost("www.stat.com"),
			deltaserver.WithCluster(cl),
			deltaserver.WithNodeID(peers[i].ID),
			deltaserver.WithFlightRecorder(flightrec.New(peers[i].ID, 64, 0)))
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
	}

	key := servers[0].Engine().OwnerKey("www.stat.com" + tierPath)
	if clusters[0].Owner(key).ID == "n0" {
		return urls, 1
	}
	return urls, 0
}

// tierPath is the document the tier tests request; all items of the dept
// share one class, so the whole site has a single owner.
const tierPath = "/d/0"

// TestTraceJoinAcrossTier drives one request through a forward hop and
// checks `cbdestat -trace` joins both nodes' records into one trace.
func TestTraceJoinAcrossTier(t *testing.T) {
	urls, entry := tierStack(t)
	entryID := fmt.Sprintf("n%d", entry)
	ownerID := fmt.Sprintf("n%d", 1-entry)

	req, _ := http.NewRequest(http.MethodGet, urls[entry]+tierPath, nil)
	req.Header.Set(deltahttp.HeaderUser, "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	traceID := resp.Header.Get(deltahttp.HeaderTrace)
	traceID, _, _ = strings.Cut(traceID, ";")

	// Each node records its hop in a deferred step that may finish after
	// the response is written, so a trace is only eventually visible: poll
	// until both hops are there (or the deadline passes and the asserts
	// below say what is missing).
	var buf bytes.Buffer
	var out string
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		buf.Reset()
		if err := run([]string{"-trace", "-peers", "n0=" + urls[0] + ",n1=" + urls[1]}, &buf); err != nil {
			t.Fatalf("-trace: %v\n%s", err, buf.String())
		}
		out = buf.String()
		if strings.Contains(out, "hop 0 "+entryID) && strings.Contains(out, "hop 1 "+ownerID) || time.Now().After(deadline) {
			break
		}
	}
	if !strings.Contains(out, "trace "+traceID+" nodes=2 [") ||
		!strings.Contains(out, "origin="+entryID) {
		t.Errorf("join summary missing or wrong (want trace %s origin %s):\n%s", traceID, entryID, out)
	}
	if !strings.Contains(out, "hop 0 "+entryID) || !strings.Contains(out, "hop 1 "+ownerID) {
		t.Errorf("per-hop lines missing:\n%s", out)
	}
	if !strings.Contains(out, "forwarded") {
		t.Errorf("entry hop outcome missing:\n%s", out)
	}
	// The owner's engine saw the class's first request: nothing anonymized
	// to distribute yet.
	if !strings.Contains(out, "reason=anon_pending") {
		t.Errorf("owner hop reason missing:\n%s", out)
	}
	if !strings.Contains(out, "stages:") {
		t.Errorf("sampled hop has no stage breakdown:\n%s", out)
	}
	if !strings.Contains(out, "1 traces across 2 nodes") {
		t.Errorf("trailer missing:\n%s", out)
	}

	// An unreachable peer is reported but does not hide live nodes.
	buf.Reset()
	if err := run([]string{"-trace", "-peers", urls[0] + ",http://127.0.0.1:1"}, &buf); err != nil {
		t.Fatalf("-trace with dead peer: %v", err)
	}
	out = buf.String()
	if !strings.Contains(out, "# node http://127.0.0.1:1 unreachable") {
		t.Errorf("dead peer not reported:\n%s", out)
	}
	if !strings.Contains(out, "across 1 nodes") {
		t.Errorf("live node's records lost:\n%s", out)
	}

	// Outcome filter narrows to the forwarded entry record.
	buf.Reset()
	if err := run([]string{"-trace", "-peers", urls[0] + "," + urls[1], "-outcome", "forwarded"}, &buf); err != nil {
		t.Fatalf("-trace -outcome: %v", err)
	}
	if out := buf.String(); !strings.Contains(out, "forwarded") || strings.Contains(out, "hop 1") {
		t.Errorf("outcome filter output wrong:\n%s", out)
	}

	// Without -peers, -trace reads the single -server ring.
	buf.Reset()
	if err := run([]string{"-trace", "-server", urls[1]}, &buf); err != nil {
		t.Fatalf("-trace single server: %v", err)
	}
	if out := buf.String(); !strings.Contains(out, "across 1 nodes") {
		t.Errorf("single-server trace output wrong:\n%s", out)
	}
}

// TestTraceModeNoRecorder: every node 404ing /_cbde/trace is an error, not
// an empty success.
func TestTraceModeNoRecorder(t *testing.T) {
	server := testStack(t) // no flight recorder attached
	var buf bytes.Buffer
	if err := run([]string{"-trace", "-server", server}, &buf); err == nil {
		t.Errorf("-trace against a recorder-less server succeeded:\n%s", buf.String())
	}
}
