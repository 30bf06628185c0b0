package deltaserver

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"cbde/internal/anonymize"
	"cbde/internal/core"
	"cbde/internal/deltahttp"
	"cbde/internal/flightrec"
	"cbde/internal/obs"
)

// respTraceCtx extracts the trace context a response advertised.
func respTraceCtx(t *testing.T, resp *http.Response) obs.TraceContext {
	t.Helper()
	hv := resp.Header.Get(deltahttp.HeaderTrace)
	ctx, ok := obs.ParseTraceContext(hv)
	if !ok {
		t.Fatalf("response %s header %q does not parse", deltahttp.HeaderTrace, hv)
	}
	return ctx
}

// oneRecord returns the single flight-recorder record for a trace ID. A
// server records a request once its handler returns, which can trail the
// response the test has already read, so it waits briefly for the record.
func oneRecord(t *testing.T, fr *flightrec.Recorder, id obs.TraceID) flightrec.Record {
	t.Helper()
	recs := fr.Snapshot(flightrec.Filter{Trace: id})
	for deadline := time.Now().Add(2 * time.Second); len(recs) == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		recs = fr.Snapshot(flightrec.Filter{Trace: id})
	}
	if len(recs) != 1 {
		t.Fatalf("recorder %s has %d records for trace %s, want 1", fr.Node(), len(recs), id)
	}
	return recs[0]
}

// TestTraceJoinsAcrossForward is the acceptance-criterion test: a request
// through a non-owning node leaves records on BOTH nodes under the SAME
// trace ID — hop 0 at the entry node, hop 1 at the owner — joinable into
// one distributed trace.
func TestTraceJoinsAcrossForward(t *testing.T) {
	st := newClusterStack(t, 3, false)
	const path = "/laptops/3"
	owner, other := st.ownerAndOther(path)

	resp, _ := doGet(t, st.fronts[other].URL+path,
		map[string]string{deltahttp.HeaderUser: "alice"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	// The relayed response names the trace; the entry node minted it, so the
	// owner saw (and echoed) hop 1.
	ctx := respTraceCtx(t, resp)
	if ctx.Origin != st.clusters[other].Self().ID || ctx.Hop != 1 {
		t.Errorf("response trace ctx = %+v, want origin %s hop 1", ctx, st.clusters[other].Self().ID)
	}

	entry := oneRecord(t, st.flights[other], ctx.ID)
	if entry.Outcome != flightrec.OutcomeForwarded || entry.Trace.Hop != 0 {
		t.Errorf("entry record = outcome %s hop %d, want forwarded hop 0", entry.Outcome, entry.Trace.Hop)
	}
	ownerRec := oneRecord(t, st.flights[owner], ctx.ID)
	if ownerRec.Trace.Hop != 1 || ownerRec.Trace.Origin != entry.Trace.Origin {
		t.Errorf("owner record = hop %d origin %s, want hop 1 origin %s",
			ownerRec.Trace.Hop, ownerRec.Trace.Origin, entry.Trace.Origin)
	}
	if ownerRec.Node == entry.Node {
		t.Error("both spans claim the same node — join would be meaningless")
	}
	if !entry.Sampled || !ownerRec.Sampled {
		t.Error("threshold-0 recorders did not sample both hops")
	}
}

// TestTraceHopGuardPreservesID: a request arriving with the forwarded marker
// and an existing trace context keeps that exact context — the hop guard
// serves locally without re-minting or re-incrementing.
func TestTraceHopGuardPreservesID(t *testing.T) {
	st := newClusterStack(t, 3, false)
	ctx := obs.TraceContext{ID: obs.TraceID{Hi: 0xfeed, Lo: 0xbeef}, Origin: "node-9", Hop: 1}

	resp, _ := doGet(t, st.fronts[0].URL+"/laptops/1", map[string]string{
		deltahttp.HeaderUser:      "alice",
		deltahttp.HeaderForwarded: "node-9",
		deltahttp.HeaderTrace:     ctx.HeaderValue(),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if got := respTraceCtx(t, resp); got != ctx {
		t.Errorf("response trace ctx = %+v, want %+v", got, ctx)
	}
	rec := oneRecord(t, st.flights[0], ctx.ID)
	if rec.Trace != ctx {
		t.Errorf("recorded trace ctx = %+v, want %+v", rec.Trace, ctx)
	}
}

// TestTraceForwardFailureFallback: when the owner is unreachable the entry
// node serves locally, keeps the minted trace ID, and flags the record with
// the forward-error reason so the tail sampler keeps full detail.
func TestTraceForwardFailureFallback(t *testing.T) {
	st := newClusterStack(t, 3, false)
	const path = "/laptops/3"
	owner, other := st.ownerAndOther(path)

	st.fronts[owner].Close() // owner drops off the network, prober hasn't noticed
	resp, body := doGet(t, st.fronts[other].URL+path,
		map[string]string{deltahttp.HeaderUser: "alice"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status during forward failure = %d", resp.StatusCode)
	}
	want, err := st.site.Render("laptops", 3, "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Error("fallback response is not the exact document")
	}

	ctx := respTraceCtx(t, resp)
	if ctx.Hop != 0 {
		t.Errorf("fallback served at hop %d, want 0 (no hop ever completed)", ctx.Hop)
	}
	rec := oneRecord(t, st.flights[other], ctx.ID)
	if rec.Reasons&flightrec.ReasonForwardError == 0 {
		t.Errorf("record reasons = %v, want forward-error", rec.Reasons)
	}
	if rec.Outcome == flightrec.OutcomeForwarded {
		t.Error("failed forward recorded as forwarded")
	}
	if !rec.Sampled {
		t.Error("forward-error record not tail-sampled")
	}
}

// TestTraceRedirectPreservesID: in redirect mode the 307 echoes the trace
// header, the client re-presents it at the owner, and both nodes' recorders
// hold the same ID — the trace survives the client-mediated hop.
func TestTraceRedirectPreservesID(t *testing.T) {
	st := newClusterStack(t, 3, true)
	const path = "/laptops/5"
	owner, other := st.ownerAndOther(path)
	ctx := obs.TraceContext{ID: obs.TraceID{Hi: 1, Lo: 0xabc}, Origin: "client", Hop: 0}

	// Non-following client: the 307 itself must carry the echoed context.
	noFollow := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	req, err := http.NewRequest(http.MethodGet, st.fronts[other].URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(deltahttp.HeaderTrace, ctx.HeaderValue())
	resp, err := noFollow.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("status = %d, want 307", resp.StatusCode)
	}
	if got := respTraceCtx(t, resp); got != ctx {
		t.Errorf("307 trace ctx = %+v, want %+v", got, ctx)
	}
	redirected := oneRecord(t, st.flights[other], ctx.ID)
	if redirected.Outcome != flightrec.OutcomeRedirected {
		t.Errorf("redirecting node outcome = %s, want redirected", redirected.Outcome)
	}

	// Following client: http.Client re-sends the request headers on a 307,
	// so the owner sees — and records — the same trace ID.
	resp2, _ := doGet(t, st.fronts[other].URL+path, map[string]string{
		deltahttp.HeaderUser:  "alice",
		deltahttp.HeaderTrace: ctx.HeaderValue(),
	})
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("followed status = %d", resp2.StatusCode)
	}
	if got := respTraceCtx(t, resp2); got.ID != ctx.ID {
		t.Errorf("owner response trace ID = %s, want %s", got.ID, ctx.ID)
	}
	oneRecord(t, st.flights[owner], ctx.ID)
}

// TestTraceEndpoint: /_cbde/trace serves filterable NDJSON and rejects bad
// query parameters; servers without a recorder 404 it.
func TestTraceEndpoint(t *testing.T) {
	st := newClusterStack(t, 3, false)
	const path = "/laptops/3"
	_, other := st.ownerAndOther(path)
	resp, _ := doGet(t, st.fronts[other].URL+path, map[string]string{deltahttp.HeaderUser: "alice"})
	id := respTraceCtx(t, resp).ID

	resp, body := doGet(t, st.fronts[other].URL+deltahttp.TracePath, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/x-ndjson") {
		t.Errorf("Content-Type = %q", ct)
	}
	lines := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("NDJSON line does not parse: %v\n%s", err, sc.Text())
		}
		if m["node"] != st.clusters[other].Self().ID {
			t.Errorf("record node = %v", m["node"])
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("trace endpoint returned no records")
	}

	// Filters narrow the stream.
	resp, body = doGet(t, st.fronts[other].URL+deltahttp.TracePath+"?outcome=forwarded", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"outcome":"forwarded"`) {
		t.Errorf("outcome filter: status %d body %q", resp.StatusCode, body)
	}
	resp, body = doGet(t, st.fronts[other].URL+deltahttp.TracePath+"?trace="+id.String(), nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), id.String()) {
		t.Errorf("trace filter: status %d body %q", resp.StatusCode, body)
	}
	resp, _ = doGet(t, st.fronts[other].URL+deltahttp.TracePath+"?outcome=delta&min-ms=10000", nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("min-ms filter status = %d", resp.StatusCode)
	}

	// Bad parameters are a client error, not a silent empty stream.
	for _, q := range []string{"?min-ms=bogus", "?outcome=nope", "?trace=zz", "?limit=x"} {
		resp, _ := doGet(t, st.fronts[other].URL+deltahttp.TracePath+q, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s status = %d, want 400", q, resp.StatusCode)
		}
	}

	// No recorder attached → 404 feature-detect.
	_, _, front := newStack(t, core.Config{Anon: anonymize.Config{M: 1, N: 2}})
	resp, _ = doGet(t, front.URL+deltahttp.TracePath, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("recorder-less trace endpoint status = %d, want 404", resp.StatusCode)
	}
}

// TestHealthIdentifiesNode: /_cbde/health is JSON naming the node, version,
// and uptime — what cbdestat trace uses to label hops.
func TestHealthIdentifiesNode(t *testing.T) {
	st := newClusterStack(t, 2, false)
	resp, body := doGet(t, st.fronts[1].URL+deltahttp.HealthPath, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("health status = %d", resp.StatusCode)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("health is not JSON: %v\n%s", err, body)
	}
	if h.Status != "ok" || h.Node != "node-1" || h.Version == "" || h.UptimeSeconds < 0 {
		t.Errorf("health = %+v", h)
	}
}

// TestBuildInfoExposed: every server publishes cbde_build_info with its
// node identity, whether or not a flight recorder is attached.
func TestBuildInfoExposed(t *testing.T) {
	st := newClusterStack(t, 2, false)
	resp, body := doGet(t, st.fronts[0].URL+deltahttp.MetricsPath, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), `node="node-0"`) ||
		!strings.Contains(string(body), "cbde_build_info{") {
		t.Errorf("exposition lacks cbde_build_info with node label")
	}

	// Standalone servers default the node label to "local".
	_, _, front := newStack(t, core.Config{Anon: anonymize.Config{M: 1, N: 2}})
	_, body = doGet(t, front.URL+deltahttp.MetricsPath, nil)
	if !strings.Contains(string(body), `node="local"`) {
		t.Error("standalone exposition lacks the default node label")
	}
}

// TestTraceExemplarOnHistogram: a traced request leaves its trace ID as an
// exemplar on the process-duration histogram, scrapable and parseable.
func TestTraceExemplarOnHistogram(t *testing.T) {
	st := newClusterStack(t, 2, false)
	const path = "/laptops/1"
	owner, _ := st.ownerAndOther(path)
	resp, _ := doGet(t, st.fronts[owner].URL+path, map[string]string{deltahttp.HeaderUser: "alice"})
	id := respTraceCtx(t, resp).ID

	_, body := doGet(t, st.fronts[owner].URL+deltahttp.MetricsPath, nil)
	want := `# {trace_id="` + id.String() + `"}`
	if !strings.Contains(string(body), want) {
		t.Errorf("exposition lacks exemplar %q on cbde_process_duration_seconds", want)
	}
}
