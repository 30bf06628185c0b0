package deltaserver

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"cbde/internal/anonymize"
	"cbde/internal/core"
	"cbde/internal/deltahttp"
	"cbde/internal/origin"
	"cbde/internal/store"
)

func testSite() *origin.Site {
	return origin.NewSite(origin.Config{
		Host:          "www.shop.com",
		Style:         origin.StylePathSegments,
		Depts:         []origin.Dept{{Name: "laptops", Items: 10}},
		TemplateBytes: 8000,
		ItemBytes:     800,
		ChurnBytes:    300,
		Personalized:  true,
		Seed:          5,
	})
}

// newStack builds origin + delta-server test servers.
func newStack(t *testing.T, cfg core.Config, opts ...Option) (*origin.Site, *Server, *httptest.Server) {
	t.Helper()
	site := testSite()
	originSrv := httptest.NewServer(site.Handler())
	t.Cleanup(originSrv.Close)

	if cfg.Now == nil {
		base := time.Unix(1_000_000, 0)
		n := 0
		cfg.Now = func() time.Time { n++; return base.Add(time.Duration(n) * time.Second) }
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(originSrv.URL, eng, append([]Option{WithPublicHost("www.shop.com")}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(srv)
	t.Cleanup(front.Close)
	return site, srv, front
}

// haveHeader is the X-CBDE-Have value advertising one held base-file.
func haveHeader(classID string, version int) string {
	return deltahttp.FormatHave([]deltahttp.Held{{ClassID: classID, Version: version}})
}

func doGet(t *testing.T, url string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestTransparentToNonCapableClients(t *testing.T) {
	site, _, front := newStack(t, core.Config{Anon: anonymize.Config{M: 1, N: 2}})

	resp, body := doGet(t, front.URL+"/laptops/3", map[string]string{deltahttp.HeaderUser: "alice"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	want, err := site.Render("laptops", 3, "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Error("non-capable client did not receive the exact document")
	}
	if resp.Header.Get(deltahttp.HeaderEncoding) != "" {
		t.Error("non-capable client received a delta")
	}
}

// warm sends enough distinct-user traffic for anonymization to finish and
// returns the class and latest version.
func warm(t *testing.T, front string, n int) (classID string, version int) {
	t.Helper()
	for i := 0; i < n; i++ {
		resp, _ := doGet(t, front+"/laptops/1", map[string]string{
			deltahttp.HeaderUser: "warm-user-" + strconv.Itoa(i),
		})
		classID = resp.Header.Get(deltahttp.HeaderClass)
		if v := resp.Header.Get(deltahttp.HeaderLatestVersion); v != "" {
			version, _ = strconv.Atoi(v)
		}
	}
	if classID == "" || version == 0 {
		t.Fatalf("class not warmed: class=%q version=%d", classID, version)
	}
	return classID, version
}

func TestDeltaFlowEndToEnd(t *testing.T) {
	site, _, front := newStack(t, core.Config{Anon: anonymize.Config{M: 1, N: 3}})
	classID, version := warm(t, front.URL, 6)

	// Fetch the base like a client would.
	resp, base := doGet(t, front.URL+deltahttp.BasePath(classID, version), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("base fetch status = %d", resp.StatusCode)
	}
	if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "public") || !strings.Contains(cc, "max-age=") {
		t.Errorf("base-file Cache-Control = %q, want public max-age", cc)
	}

	// Request with the held base: must get a delta that reconstructs.
	resp, payload := doGet(t, front.URL+"/laptops/1", map[string]string{
		deltahttp.HeaderCapable: "1",
		deltahttp.HeaderUser:    "delta-user",
		deltahttp.HeaderHave:    haveHeader(classID, version),
	})
	enc := resp.Header.Get(deltahttp.HeaderEncoding)
	if enc != deltahttp.EncodingVdelta && enc != deltahttp.EncodingVdeltaGzip {
		t.Fatalf("encoding = %q, want a delta", enc)
	}
	gotVersion, _ := strconv.Atoi(resp.Header.Get(deltahttp.HeaderBaseVersion))
	if gotVersion != version {
		t.Fatalf("delta against version %d, client holds %d", gotVersion, version)
	}

	eng, err := core.NewEngine(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := eng.Decode(base, payload, enc == deltahttp.EncodingVdeltaGzip)
	if err != nil {
		t.Fatal(err)
	}
	want, err := site.Render("laptops", 1, "delta-user", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc, want) {
		t.Error("reconstructed document does not match the origin render")
	}
	if len(payload) >= len(want)/5 {
		t.Errorf("delta %d bytes vs doc %d bytes: insufficient savings", len(payload), len(want))
	}
}

func TestBaseFileNotFound(t *testing.T) {
	_, _, front := newStack(t, core.Config{})
	resp, _ := doGet(t, front.URL+deltahttp.BasePath("no-such-class", 1), nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

func TestBadBasePath(t *testing.T) {
	_, _, front := newStack(t, core.Config{})
	resp, _ := doGet(t, front.URL+deltahttp.BasePathPrefix+"junk", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestStatsEndpoint(t *testing.T) {
	_, _, front := newStack(t, core.Config{Anon: anonymize.Config{M: 1, N: 2}})
	warm(t, front.URL, 4)
	resp, body := doGet(t, front.URL+deltahttp.StatsPath, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	for _, want := range []string{"mode class-based", "requests 4", "classes 1"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("stats missing %q:\n%s", want, body)
		}
	}
}

func TestStoreEndpoint(t *testing.T) {
	const budget = 256 << 10
	_, _, front := newStack(t, core.Config{MemBudget: budget, DisableAnonymization: true})
	warm(t, front.URL, 4)

	resp, body := doGet(t, front.URL+deltahttp.StorePath, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var st store.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("store snapshot is not valid JSON: %v\n%s", err, body)
	}
	if st.Budget != budget {
		t.Errorf("budget = %d, want %d", st.Budget, budget)
	}
	if st.Classes == 0 || st.ResidentClasses == 0 {
		t.Errorf("no resident classes after warm traffic: %+v", st)
	}
	if st.Resident.Total <= 0 || st.Resident.Total > budget {
		t.Errorf("resident bytes %d outside (0, budget=%d]", st.Resident.Total, budget)
	}
}

// TestStoreEndpointReportsEvictions drives a server whose budget cannot hold
// any class and checks that the sweeps it forces are visible through the
// admin endpoint — the signal the CI store-smoke job asserts on.
func TestStoreEndpointReportsEvictions(t *testing.T) {
	_, _, front := newStack(t, core.Config{MemBudget: 1, DisableAnonymization: true})
	warm(t, front.URL, 4)

	resp, body := doGet(t, front.URL+deltahttp.StorePath, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var st store.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("store snapshot is not valid JSON: %v\n%s", err, body)
	}
	if st.Evictions == 0 {
		t.Errorf("no evictions under a 1-byte budget: %+v", st)
	}
	if len(st.Log) == 0 {
		t.Error("eviction log is empty despite evictions")
	}
}

func TestOriginDown(t *testing.T) {
	eng, err := core.NewEngine(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New("http://127.0.0.1:1", eng)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(srv)
	defer front.Close()
	resp, _ := doGet(t, front.URL+"/laptops/1", nil)
	if resp.StatusCode != http.StatusBadGateway {
		t.Errorf("status = %d, want 502", resp.StatusCode)
	}
}

func TestOrigin404PassesThrough(t *testing.T) {
	_, _, front := newStack(t, core.Config{})
	resp, _ := doGet(t, front.URL+"/unknown/99", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404 passed through", resp.StatusCode)
	}
}

func TestCookieIdentityForwarded(t *testing.T) {
	_, _, front := newStack(t, core.Config{Anon: anonymize.Config{M: 1, N: 2}})
	req, _ := http.NewRequest(http.MethodGet, front.URL+"/laptops/2", nil)
	req.AddCookie(&http.Cookie{Name: "uid", Value: "cookie-carol"})
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !bytes.Contains(body, []byte("cookie-carol")) {
		t.Error("cookie identity not forwarded to the personalized origin")
	}
}

func TestNewErrors(t *testing.T) {
	eng, err := core.NewEngine(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"", "no-scheme.example.com", "http://"} {
		if _, err := New(u, eng); err == nil {
			t.Errorf("New(%q): expected error", u)
		}
	}
}

func TestStaleVersionServedFull(t *testing.T) {
	_, _, front := newStack(t, core.Config{Anon: anonymize.Config{M: 1, N: 2}})
	classID, _ := warm(t, front.URL, 4)
	resp, _ := doGet(t, front.URL+"/laptops/1", map[string]string{
		deltahttp.HeaderCapable: "1",
		deltahttp.HeaderUser:    "u",
		deltahttp.HeaderHave:    haveHeader(classID, 9999),
	})
	if resp.Header.Get(deltahttp.HeaderEncoding) != "" {
		t.Error("stale client version answered with a delta")
	}
	if resp.Header.Get(deltahttp.HeaderLatestVersion) == "" {
		t.Error("response does not advertise the latest version")
	}
}

func TestNonGETPassesThrough(t *testing.T) {
	// An origin that echoes POST bodies; the delta-server must not touch
	// the exchange.
	echo := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "want POST", http.StatusMethodNotAllowed)
			return
		}
		body, _ := io.ReadAll(r.Body)
		w.Header().Set("X-Echo", "1")
		_, _ = w.Write(body)
	}))
	defer echo.Close()

	eng, err := core.NewEngine(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(echo.URL, eng)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(srv)
	defer front.Close()

	resp, err := http.Post(front.URL+"/cart/add", "text/plain", strings.NewReader("item=42"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "item=42" {
		t.Errorf("POST body = %q, want echoed", body)
	}
	if resp.Header.Get("X-Echo") != "1" {
		t.Error("origin headers not passed through")
	}
	if got := eng.Stats().Requests; got != 0 {
		t.Errorf("engine processed %d requests for a POST, want 0", got)
	}
}

func TestWithBaseMaxAge(t *testing.T) {
	_, srv, front := newStack(t, core.Config{Anon: anonymize.Config{M: 1, N: 2}})
	classID, version := warm(t, front.URL, 4)
	resp, _ := doGet(t, front.URL+deltahttp.BasePath(classID, version), nil)
	if cc := resp.Header.Get("Cache-Control"); !strings.Contains(cc, "max-age=3600") {
		t.Errorf("default base max-age not 1h: %q", cc)
	}
	if got := srv.Engine().Stats().Requests; got != 4 {
		t.Errorf("Engine() accessor: %d requests, want the 4 warm-up requests", got)
	}
}

func TestMultiBaseAdvertisement(t *testing.T) {
	// A client advertising several held bases via the multi-base header
	// gets a delta against the matching class.
	_, _, front := newStack(t, core.Config{Anon: anonymize.Config{M: 1, N: 2}})
	classID, version := warm(t, front.URL, 4)

	have := deltahttp.FormatHave([]deltahttp.Held{
		{ClassID: "unrelated-class", Version: 3},
		{ClassID: classID, Version: version},
	})
	resp, _ := doGet(t, front.URL+"/laptops/1", map[string]string{
		deltahttp.HeaderCapable: "1",
		deltahttp.HeaderUser:    "multi",
		deltahttp.HeaderHave:    have,
	})
	if enc := resp.Header.Get(deltahttp.HeaderEncoding); enc == "" {
		t.Error("multi-base advertisement did not yield a delta")
	}
}

func TestVCDIFFNegotiation(t *testing.T) {
	site, _, front := newStack(t, core.Config{Anon: anonymize.Config{M: 1, N: 2}})
	classID, version := warm(t, front.URL, 4)
	resp, base := doGet(t, front.URL+deltahttp.BasePath(classID, version), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatal("base fetch failed")
	}
	resp, payload := doGet(t, front.URL+"/laptops/1", map[string]string{
		deltahttp.HeaderCapable: "1",
		deltahttp.HeaderUser:    "std",
		deltahttp.HeaderAccept:  deltahttp.EncodingVCDIFF,
		deltahttp.HeaderHave:    haveHeader(classID, version),
	})
	enc := resp.Header.Get(deltahttp.HeaderEncoding)
	if enc != deltahttp.EncodingVCDIFF && enc != deltahttp.EncodingVCDIFFGzip {
		t.Fatalf("encoding = %q, want a VCDIFF variant", enc)
	}
	eng, err := core.NewEngine(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := eng.DecodeAs(base, payload, enc == deltahttp.EncodingVCDIFFGzip, core.FormatVCDIFF)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := site.Render("laptops", 1, "std", 0)
	if !bytes.Equal(doc, want) {
		t.Error("VCDIFF response does not reconstruct the document")
	}
}

func TestCookieIdentityAssignment(t *testing.T) {
	site := testSite()
	originSrv := httptest.NewServer(site.Handler())
	t.Cleanup(originSrv.Close)
	base := time.Unix(3_000_000, 0)
	n := 0
	eng, err := core.NewEngine(core.Config{
		Anon: anonymize.Config{M: 1, N: 2},
		Now:  func() time.Time { n++; return base.Add(time.Duration(n) * time.Second) },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(originSrv.URL, eng,
		WithPublicHost("www.shop.com"), WithCookieIdentity())
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(srv)
	t.Cleanup(front.Close)

	// An unidentified request gets a uid cookie.
	resp, _ := doGet(t, front.URL+"/laptops/1", nil)
	var uid string
	for _, c := range resp.Cookies() {
		if c.Name == "uid" {
			uid = c.Value
		}
	}
	if uid == "" {
		t.Fatal("no uid cookie assigned")
	}
	// A request that already carries identity gets none.
	resp, _ = doGet(t, front.URL+"/laptops/1", map[string]string{deltahttp.HeaderUser: "named"})
	for _, c := range resp.Cookies() {
		if c.Name == "uid" {
			t.Error("uid cookie assigned despite existing identity")
		}
	}
	// Distinct unidentified browsers count as distinct users, so
	// anonymization completes from anonymous traffic alone.
	doGet(t, front.URL+"/laptops/1", nil)
	doGet(t, front.URL+"/laptops/1", nil)
	if got := eng.Stats().AnonCompleted; got == 0 {
		t.Error("anonymization never completed from cookie-assigned identities")
	}
}
