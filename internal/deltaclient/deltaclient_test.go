package deltaclient

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cbde/internal/anonymize"
	"cbde/internal/core"
	"cbde/internal/deltahttp"
	"cbde/internal/deltaserver"
	"cbde/internal/origin"
)

// stack is an origin + delta-server pair for client tests.
type stack struct {
	site   *origin.Site
	engine *core.Engine
	front  *httptest.Server
}

func newStack(t *testing.T) *stack {
	t.Helper()
	site := origin.NewSite(origin.Config{
		Host:          "www.shop.com",
		Style:         origin.StylePathSegments,
		Depts:         []origin.Dept{{Name: "laptops", Items: 10}},
		TemplateBytes: 8000,
		ItemBytes:     800,
		ChurnBytes:    300,
		Personalized:  true,
		Seed:          7,
	})
	originSrv := httptest.NewServer(site.Handler())
	t.Cleanup(originSrv.Close)

	base := time.Unix(1_000_000, 0)
	n := 0
	eng, err := core.NewEngine(core.Config{
		Anon: anonymize.Config{M: 1, N: 3},
		Now:  func() time.Time { n++; return base.Add(time.Duration(n) * time.Second) },
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := deltaserver.New(originSrv.URL, eng, deltaserver.WithPublicHost("www.shop.com"))
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(srv)
	t.Cleanup(front.Close)
	return &stack{site: site, engine: eng, front: front}
}

// engineLatestBase returns the newest base of the warmed laptops class.
func (s *stack) engineLatestBase() ([]byte, int, bool) {
	for _, id := range []string{"www.shop.com/laptops#1", "www.shop.com/laptops#2"} {
		if base, v, ok := s.engine.LatestBase(id); ok {
			return base, v, ok
		}
	}
	return nil, 0, false
}

// warm completes anonymization for the /laptops/1 class.
func (s *stack) warm(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		c := New(s.front.URL, WithUser(fmt.Sprintf("warm-%d", i)))
		if _, err := c.Get("/laptops/1"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestClientReconstructsDocuments(t *testing.T) {
	s := newStack(t)
	s.warm(t, 6)

	c := New(s.front.URL, WithUser("alice"))
	// First request: full + base fetch. Second request: delta.
	doc1, err := c.Get("/laptops/1")
	if err != nil {
		t.Fatal(err)
	}
	doc2, err := c.Get("/laptops/1")
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.site.Render("laptops", 1, "alice", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(doc1, want) || !bytes.Equal(doc2, want) {
		t.Error("reconstructed documents do not match the origin")
	}
	st := c.Stats()
	if st.DeltaResponses == 0 {
		t.Errorf("no delta responses: %+v", st)
	}
	if st.BaseFetches == 0 {
		t.Errorf("client never fetched a base: %+v", st)
	}
}

func TestClientSavesBandwidthOnRepeatAccess(t *testing.T) {
	s := newStack(t)
	s.warm(t, 6)

	c := New(s.front.URL, WithUser("bob"))
	var docBytes int64
	for i := 0; i < 20; i++ {
		doc, err := c.Get("/laptops/1")
		if err != nil {
			t.Fatal(err)
		}
		docBytes += int64(len(doc))
	}
	st := c.Stats()
	// Payload alone (excluding the one-time base fetch) must be far below
	// the document volume delivered.
	if st.PayloadBytes*3 > docBytes {
		t.Errorf("payload %d vs documents %d: expected >3x savings", st.PayloadBytes, docBytes)
	}
	if st.DeltaResponses < 18 {
		t.Errorf("delta responses = %d of 20", st.DeltaResponses)
	}
}

func TestClientTracksContentChurn(t *testing.T) {
	s := newStack(t)
	s.warm(t, 6)
	c := New(s.front.URL, WithUser("carol"))
	if _, err := c.Get("/laptops/1"); err != nil {
		t.Fatal(err)
	}
	for tick := 1; tick <= 5; tick++ {
		s.site.Advance(1)
		doc, err := c.Get("/laptops/1")
		if err != nil {
			t.Fatal(err)
		}
		want, _ := s.site.Render("laptops", 1, "carol", tick)
		if !bytes.Equal(doc, want) {
			t.Fatalf("tick %d: reconstruction mismatch", tick)
		}
	}
}

func TestClientColdCacheAfterForget(t *testing.T) {
	s := newStack(t)
	s.warm(t, 6)
	c := New(s.front.URL, WithUser("dave"))
	if _, err := c.Get("/laptops/1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("/laptops/1"); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	c.Forget()
	if _, err := c.Get("/laptops/1"); err != nil {
		t.Fatal(err)
	}
	after := c.Stats()
	if after.FullResponses != before.FullResponses+1 {
		t.Errorf("expected one more full response after Forget: %+v vs %+v", after, before)
	}
	if after.BaseFetches != before.BaseFetches+1 {
		t.Errorf("expected a re-fetch of the base after Forget")
	}
}

func TestHeldVersion(t *testing.T) {
	s := newStack(t)
	s.warm(t, 6)
	c := New(s.front.URL, WithUser("erin"))
	if got := c.HeldVersion("anything"); got != 0 {
		t.Errorf("HeldVersion before any request = %d", got)
	}
	if _, err := c.Get("/laptops/1"); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.BaseFetches != 1 {
		t.Fatalf("BaseFetches = %d, want 1", st.BaseFetches)
	}
}

func TestClientAgainstDeadServer(t *testing.T) {
	c := New("http://127.0.0.1:1")
	if _, err := c.Get("/x"); err == nil {
		t.Error("expected connection error")
	}
	if err := c.FetchBase("cls", 1); err == nil {
		t.Error("expected connection error from FetchBase")
	}
}

func TestClientRejectsUnknownEncoding(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(deltahttp.HeaderEncoding, "martian")
		_, _ = w.Write([]byte("???"))
	}))
	defer srv.Close()
	c := New(srv.URL)
	if _, err := c.Get("/x"); err == nil || !strings.Contains(err.Error(), "unknown payload encoding") {
		t.Errorf("got %v, want unknown-encoding error", err)
	}
}

func TestClientRejectsDeltaWithoutHeldBase(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(deltahttp.HeaderEncoding, deltahttp.EncodingVdelta)
		w.Header().Set(deltahttp.HeaderClass, "cls")
		w.Header().Set(deltahttp.HeaderBaseVersion, "3")
		_, _ = w.Write([]byte("bogus"))
	}))
	defer srv.Close()
	c := New(srv.URL)
	if _, err := c.Get("/x"); err == nil || !strings.Contains(err.Error(), "does not hold") {
		t.Errorf("got %v, want not-held error", err)
	}
}

func TestClientRejectsMissingBaseVersion(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(deltahttp.HeaderEncoding, deltahttp.EncodingVdelta)
		_, _ = w.Write([]byte("bogus"))
	}))
	defer srv.Close()
	c := New(srv.URL)
	if _, err := c.Get("/x"); err == nil {
		t.Error("expected error for delta without base version")
	}
}

func TestClientNonOKStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	c := New(srv.URL)
	if _, err := c.Get("/x"); err == nil {
		t.Error("expected error for 503")
	}
	if err := c.FetchBase("cls", 1); err == nil {
		t.Error("expected error for 503 base fetch")
	}
}

func TestBoundedBaseCacheEvicts(t *testing.T) {
	s := newStack(t)
	s.warm(t, 6)
	// Warm a second department class as well.
	// (newStack's site only has laptops; use two items of the same class,
	// then bound the cache below one base size to force eviction churn.)
	base, _, ok := s.engineLatestBase()
	if !ok {
		t.Fatal("no base after warmup")
	}
	cl := New(s.front.URL, WithUser("tiny"), WithMaxBaseBytes(int64(len(base))/2))
	if _, err := cl.Get("/laptops/1"); err != nil {
		t.Fatal(err)
	}
	// A single held base is never evicted (the cache keeps at least one
	// entry so the client can still make progress).
	if got := cl.Stats().BaseEvictions; got != 0 {
		t.Errorf("evictions = %d with a single class, want 0", got)
	}
}

func TestBoundedBaseCacheKeepsMostRecent(t *testing.T) {
	// Two classes, cache sized for one base: fetching the second evicts
	// the first.
	c := New("http://unused", WithMaxBaseBytes(100))
	c.bases["class-a"] = heldBase{version: 1, data: make([]byte, 80), lastUsed: 1}
	c.useSeq = 1
	c.mu.Lock()
	c.bases["class-b"] = heldBase{version: 1, data: make([]byte, 80), lastUsed: 2}
	c.useSeq = 2
	c.evictLocked()
	c.mu.Unlock()
	if _, ok := c.bases["class-a"]; ok {
		t.Error("LRU base not evicted")
	}
	if _, ok := c.bases["class-b"]; !ok {
		t.Error("most recent base evicted")
	}
	if got := c.Stats().BaseEvictions; got != 1 {
		t.Errorf("evictions = %d, want 1", got)
	}
}
