package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"cbde/internal/anonymize"
	"cbde/internal/core"
	"cbde/internal/deltahttp"
	"cbde/internal/deltaserver"
	"cbde/internal/origin"
	"cbde/internal/store"
)

// testStack boots origin + delta-server and drives enough capable traffic
// that one class has a distributable base and delta hits.
func testStack(t *testing.T) string {
	t.Helper()
	site := origin.NewSite(origin.Config{
		Host:          "www.stat.com",
		Style:         origin.StylePathSegments,
		Depts:         []origin.Dept{{Name: "d", Items: 2}},
		TemplateBytes: 20000,
		ItemBytes:     2000,
		Seed:          9,
	})
	originSrv := httptest.NewServer(site.Handler())
	t.Cleanup(originSrv.Close)
	eng, err := core.NewEngine(core.Config{Anon: anonymize.Config{M: 1, N: 2}})
	if err != nil {
		t.Fatal(err)
	}
	eng.SetTracing(true)
	srv, err := deltaserver.New(originSrv.URL, eng, deltaserver.WithPublicHost("www.stat.com"))
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(srv)
	t.Cleanup(front.Close)

	var classID string
	var version int
	for u := 0; u < 5; u++ {
		req, _ := http.NewRequest("GET", front.URL+"/d/0", nil)
		req.Header.Set(deltahttp.HeaderCapable, "1")
		req.Header.Set(deltahttp.HeaderUser, fmt.Sprintf("u%d", u))
		if classID != "" {
			req.Header.Set(deltahttp.HeaderHave, deltahttp.FormatHave([]deltahttp.Held{{ClassID: classID, Version: version}}))
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if c := resp.Header.Get(deltahttp.HeaderClass); c != "" {
			classID = c
		}
		if v, err := strconv.Atoi(resp.Header.Get(deltahttp.HeaderLatestVersion)); err == nil {
			version = v
		}
	}
	if classID == "" {
		t.Fatal("no class after warmup")
	}
	return front.URL
}

func TestSnapshotAndCheck(t *testing.T) {
	server := testStack(t)

	var buf bytes.Buffer
	if err := run([]string{"-server", server}, &buf); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	out := buf.String()
	for _, want := range []string{"CLASS", "HITS", "SAVED%", "RESIDENT", "www.stat.com/d", "store:", "unbudgeted", "P_error", "no_base_held"} {
		if !strings.Contains(out, want) {
			t.Errorf("snapshot output missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := run([]string{"-server", server, "-store"}, &buf); err != nil {
		t.Fatalf("-store: %v", err)
	}
	var st store.Stats
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
		t.Fatalf("-store output is not JSON: %v\n%s", err, buf.String())
	}
	if st.Classes == 0 || st.Resident.Total == 0 {
		t.Errorf("-store snapshot empty after warm traffic: %+v", st)
	}

	buf.Reset()
	if err := run([]string{"-server", server, "-check"}, &buf); err != nil {
		t.Fatalf("-check failed against a warm stack: %v", err)
	}
	if !strings.Contains(buf.String(), "ok:") {
		t.Errorf("-check output = %q, want ok summary", buf.String())
	}

	buf.Reset()
	if err := run([]string{"-server", server, "-metrics"}, &buf); err != nil {
		t.Fatalf("-metrics: %v", err)
	}
	if !strings.Contains(buf.String(), "# TYPE cbde_class_delta_hits_total counter") {
		t.Errorf("-metrics dump missing typed family:\n%s", buf.String())
	}
}

func TestClassFlag(t *testing.T) {
	server := testStack(t)
	var buf bytes.Buffer
	if err := run([]string{"-server", server}, &buf); err != nil {
		t.Fatal(err)
	}
	// Pull the class ID out of the stats table instead of hardcoding it.
	var rows []core.ClassStats
	body, err := fetch(&http.Client{Timeout: 5 * time.Second}, server+deltahttp.StatsPath+"?class=*")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &rows); err != nil || len(rows) == 0 {
		t.Fatalf("stats rows: %v (%d rows)", err, len(rows))
	}

	buf.Reset()
	if err := run([]string{"-server", server, "-class", rows[0].ID}, &buf); err != nil {
		t.Fatalf("-class: %v", err)
	}
	var row core.ClassStats
	if err := json.Unmarshal(buf.Bytes(), &row); err != nil {
		t.Fatalf("-class output is not JSON: %v\n%s", err, buf.String())
	}
	if row.ID != rows[0].ID || row.Requests == 0 {
		t.Errorf("-class row = %+v, want populated stats for %q", row, rows[0].ID)
	}

	if err := run([]string{"-server", server, "-class", "nope"}, &buf); err == nil {
		t.Error("-class with unknown ID succeeded, want error")
	}
}

func TestCheckFailsOnGarbage(t *testing.T) {
	garbage := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		fmt.Fprintln(w, "this is not { prometheus")
	}))
	t.Cleanup(garbage.Close)
	if err := run([]string{"-server", garbage.URL, "-check"}, &bytes.Buffer{}); err == nil {
		t.Error("-check accepted garbage exposition")
	}
}
