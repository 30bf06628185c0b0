package deltaserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"cbde/internal/anonymize"
	"cbde/internal/core"
	"cbde/internal/deltahttp"
	"cbde/internal/metrics"
)

// warmStack drives enough capable traffic through a stack to install a
// distributable base and serve at least one delta, returning the class ID.
func warmStack(t *testing.T, front string) string {
	t.Helper()
	var classID string
	var version int
	for u := 0; u < 5; u++ {
		hdr := map[string]string{
			deltahttp.HeaderCapable: "1",
			deltahttp.HeaderUser:    fmt.Sprintf("user%d", u),
		}
		if classID != "" {
			hdr[deltahttp.HeaderHave] = haveHeader(classID, version)
		}
		resp, _ := doGet(t, front+"/laptops/1", hdr)
		if c := resp.Header.Get(deltahttp.HeaderClass); c != "" {
			classID = c
		}
		if v, err := strconv.Atoi(resp.Header.Get(deltahttp.HeaderLatestVersion)); err == nil {
			version = v
		}
	}
	if classID == "" {
		t.Fatal("no class assigned after warmup traffic")
	}
	return classID
}

func TestMetricsEndpointServesExposition(t *testing.T) {
	_, srv, front := newStack(t, core.Config{Anon: anonymize.Config{M: 1, N: 2}})
	srv.Engine().SetTracing(true)
	classID := warmStack(t, front.URL)

	resp, body := doGet(t, front.URL+deltahttp.MetricsPath, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", deltahttp.MetricsPath, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ExpositionContentType {
		t.Errorf("Content-Type = %q, want %q", ct, metrics.ExpositionContentType)
	}
	exp, err := metrics.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("metrics endpoint output does not parse: %v\n%s", err, body)
	}
	for _, series := range []string{
		"cbde_class_delta_hits_total",
		"cbde_bytes_saved_total",
		"cbde_stage_duration_seconds_bucket",
		"cbde_process_duration_seconds_count",
	} {
		if !exp.Series(series) {
			t.Errorf("metrics endpoint missing series %s", series)
		}
	}
	var hits float64
	for _, s := range exp.Samples {
		if s.Name == "cbde_class_delta_hits_total" {
			if c, ok := s.Label("class"); ok && c == classID {
				hits = s.Value
			}
		}
	}
	if hits <= 0 {
		t.Errorf("no delta hits recorded for class %q", classID)
	}
}

func TestStatsClassQuery(t *testing.T) {
	_, _, front := newStack(t, core.Config{Anon: anonymize.Config{M: 1, N: 2}})
	classID := warmStack(t, front.URL)

	// Single class row.
	resp, body := doGet(t, front.URL+deltahttp.StatsPath+"?class="+url.QueryEscape(classID), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats?class=<id>: status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var row core.ClassStats
	if err := json.Unmarshal(body, &row); err != nil {
		t.Fatalf("class stats row is not JSON: %v\n%s", err, body)
	}
	if row.ID != classID || row.Requests == 0 || row.DeltaHits == 0 {
		t.Errorf("class row = %+v, want traffic accounted for %q", row, classID)
	}
	if row.BytesShipped >= row.BytesIn {
		t.Errorf("shipped %d >= in %d: warm class must save bytes", row.BytesShipped, row.BytesIn)
	}

	// All classes.
	resp, body = doGet(t, front.URL+deltahttp.StatsPath+"?class=*", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats?class=*: status %d", resp.StatusCode)
	}
	var rows []core.ClassStats
	if err := json.Unmarshal(body, &rows); err != nil {
		t.Fatalf("all-class stats is not a JSON array: %v\n%s", err, body)
	}
	if len(rows) == 0 {
		t.Fatal("stats?class=* returned no rows")
	}

	// Unknown class is a 404, and the plain dump still works.
	resp, _ = doGet(t, front.URL+deltahttp.StatsPath+"?class=nope", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("stats?class=nope: status %d, want 404", resp.StatusCode)
	}
	resp, body = doGet(t, front.URL+deltahttp.StatsPath, nil)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte("mode ")) {
		t.Errorf("plain stats dump broken: status %d body %q", resp.StatusCode, body)
	}
}

func TestRequestLog(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	_, srv, front := newStack(t, core.Config{Anon: anonymize.Config{M: 1, N: 2}},
		WithRequestLog(logger))
	srv.Engine().SetTracing(true)
	warmStack(t, front.URL)

	out := buf.String()
	if out == "" {
		t.Fatal("no request log lines emitted")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 {
		t.Errorf("got %d log lines, want 5 (one per document request):\n%s", len(lines), out)
	}
	for _, want := range []string{"rid=", "path=/laptops/1", "outcome=", "dur=", "doc_bytes=", "wire_bytes=", "user=user0", "class="} {
		if !strings.Contains(out, want) {
			t.Errorf("request log missing %q:\n%s", want, out)
		}
	}
	// With tracing on, delta responses carry a span summary.
	if !strings.Contains(out, "outcome=delta") {
		t.Errorf("no delta outcome logged:\n%s", out)
	}
	sawSpans := false
	for _, line := range lines {
		if strings.Contains(line, "outcome=delta") && strings.Contains(line, "spans=") &&
			strings.Contains(line, "encode=") {
			sawSpans = true
		}
	}
	if !sawSpans {
		t.Errorf("no span summary on a delta response log line:\n%s", out)
	}
	// Request IDs are distinct and monotone.
	if !strings.Contains(out, "rid=1") || !strings.Contains(out, "rid=5") {
		t.Errorf("request IDs not monotone 1..5:\n%s", out)
	}

	// The ops endpoints themselves must not generate request log lines.
	buf.Reset()
	doGet(t, front.URL+deltahttp.MetricsPath, nil)
	doGet(t, front.URL+deltahttp.StatsPath, nil)
	if buf.Len() != 0 {
		t.Errorf("ops endpoints produced request log lines:\n%s", buf.String())
	}
}
