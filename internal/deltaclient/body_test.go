package deltaclient

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"cbde/internal/bodybuf"
	"cbde/internal/deltahttp"
	"cbde/internal/gzipx"
	"cbde/internal/testutil"
	"cbde/internal/vdelta"
)

func shrinkBodyBound(t *testing.T, n int) {
	old := maxBody
	maxBody = n
	t.Cleanup(func() { maxBody = old })
}

// A server that never stops sending, or a few KB that inflate without end,
// cost the client at most its bound: Get and FetchBase stop there with an
// error instead of reading (or allocating) forever.
func TestClientStopsAtItsBound(t *testing.T) {
	const bound = 256 << 10
	shrinkBodyBound(t, bound)
	base := bytes.Repeat([]byte("the base-file the client holds. "), 64)
	bomb := gzipx.Compress(make([]byte, 8*bound))
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/base-ok":
			w.Header().Set(deltahttp.HeaderClass, "cls")
			w.Header().Set(deltahttp.HeaderLatestVersion, "1")
			_, _ = w.Write([]byte("a small full document"))
		case strings.HasPrefix(r.URL.Path, deltahttp.BasePathPrefix) && strings.HasSuffix(r.URL.Path, "/1"):
			_, _ = w.Write(base)
		case r.URL.Path == "/bomb":
			w.Header().Set(deltahttp.HeaderEncoding, deltahttp.EncodingVdeltaGzip)
			w.Header().Set(deltahttp.HeaderClass, "cls")
			w.Header().Set(deltahttp.HeaderBaseVersion, "1")
			_, _ = w.Write(bomb)
		case r.URL.Path == "/bomb-chain":
			w.Header().Set(deltahttp.HeaderEncoding, deltahttp.EncodingVdeltaChain)
			w.Header().Set(deltahttp.HeaderClass, "cls")
			w.Header().Set(deltahttp.HeaderBaseVersion, "1")
			_, _ = w.Write(deltahttp.AppendChain(nil, []deltahttp.ChainSegment{{Payload: bomb, Gzipped: true}}))
		default: // documents and every other base: an endless body
			chunk := bytes.Repeat([]byte("x"), 32<<10)
			for r.Context().Err() == nil {
				if _, err := w.Write(chunk); err != nil {
					return
				}
			}
		}
	}))
	defer srv.Close()

	c := New(srv.URL)
	if _, err := c.Get("/base-ok"); err != nil || c.HeldVersion("cls") != 1 {
		t.Fatalf("setup: err=%v, held v%d", err, c.HeldVersion("cls"))
	}
	if len(bomb) > bound/16 {
		t.Fatalf("bomb is %d bytes on the wire", len(bomb))
	}
	for _, path := range []string{"/endless", "/bomb", "/bomb-chain"} {
		if _, err := c.Get(path); !errors.Is(err, bodybuf.ErrTooLarge) {
			t.Errorf("Get(%s): err = %v, want bodybuf.ErrTooLarge", path, err)
		}
	}
	if err := c.FetchBase("cls", 2); !errors.Is(err, bodybuf.ErrTooLarge) {
		t.Errorf("FetchBase of an endless base: err = %v, want bodybuf.ErrTooLarge", err)
	}
	if c.HeldVersion("cls") != 1 {
		t.Errorf("the failed fetch replaced the held base (now v%d)", c.HeldVersion("cls"))
	}
}

// The budget that keeps the next io.ReadAll out of the client: a warm delta
// Get allocates the document it returns plus net/http's per-request state —
// not the delta body, not the inflated delta, not a growth ladder of either.
// The delta served is the worst case, all literals that gzip cannot shrink,
// so body and inflated delta are each the size of the document and any one of
// them reaching the heap breaks the budget.
func TestWarmDeltaGetAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation sizes differ under -race")
	}
	base := bytes.Repeat([]byte("<tr><td>catalogue row shared by every page of the class</td></tr>\n"), 560) // ~36 KB
	doc := make([]byte, len(base))
	x := uint64(42)
	for i := range doc {
		x = x*2862933555777941757 + 3037000493
		doc[i] = byte(x >> 56)
	}
	delta, err := vdelta.Encode(base, doc)
	if err != nil {
		t.Fatal(err)
	}
	// Compressed up front: the benchmark counts the whole process, and the
	// stub server's share should be net/http's, not a gzip per request.
	payload := gzipx.Compress(delta)
	if len(payload) < len(doc) {
		t.Fatalf("payload is %d bytes for a %d-byte document: not the worst case", len(payload), len(doc))
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, deltahttp.BasePathPrefix) {
			_, _ = w.Write(base)
			return
		}
		w.Header().Set(deltahttp.HeaderClass, "cls")
		w.Header().Set(deltahttp.HeaderLatestVersion, "1")
		if r.Header.Get(deltahttp.HeaderHave) == "" {
			_, _ = w.Write(doc)
			return
		}
		w.Header().Set(deltahttp.HeaderEncoding, deltahttp.EncodingVdeltaGzip)
		w.Header().Set(deltahttp.HeaderBaseVersion, "1")
		w.Header().Set("Content-Length", strconv.Itoa(len(payload)))
		_, _ = w.Write(payload)
	}))
	defer srv.Close()
	c := New(srv.URL)
	if _, err := c.Get("/doc"); err != nil { // full + base fetch
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got, err := c.Get("/doc"); err != nil || !bytes.Equal(got, doc) {
				b.Fatalf("Get: %v (%d bytes)", err, len(got))
			}
		}
	})
	got, limit := res.AllocedBytesPerOp(), int64(len(doc))*3/2
	t.Logf("warm delta Get: %d bytes/op, %d allocs/op, document %d bytes", got, res.AllocsPerOp(), len(doc))
	if got >= limit {
		t.Errorf("warm delta Get allocates %d bytes/op for a %d-byte document, budget < %d", got, len(doc), limit)
	}
	if st := c.Stats(); st.DeltaResponses < res.N || st.FullResponses != 1 {
		t.Errorf("the budget was not measured on deltas: %+v", st)
	}
}

// A Get whose response announces a newer base refreshes it with a second
// round trip; by then the pooled buffers that held the delta body and its
// inflated form must be back in the pool, not pinned across the fetch.
func TestGetReleasesDeltaBuffersBeforeBaseRefresh(t *testing.T) {
	base := bytes.Repeat([]byte("a row of the base-file every page shares\n"), 200)
	doc := append(bytes.Clone(base), "and one line of its own\n"...)
	delta, err := vdelta.Encode(base, doc)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, deltahttp.BasePathPrefix) {
			_, _ = w.Write(base)
			return
		}
		w.Header().Set(deltahttp.HeaderClass, "cls")
		if r.Header.Get(deltahttp.HeaderHave) == "" {
			w.Header().Set(deltahttp.HeaderLatestVersion, "1")
			_, _ = w.Write(doc)
			return
		}
		w.Header().Set(deltahttp.HeaderLatestVersion, "2") // a newer base: refresh
		w.Header().Set(deltahttp.HeaderEncoding, deltahttp.EncodingVdeltaGzip)
		w.Header().Set(deltahttp.HeaderBaseVersion, "1")
		_, _ = w.Write(gzipx.Compress(delta))
	}))
	defer srv.Close()

	held := 0 // pooled buffers checked out and not yet returned
	oldGet, oldPut := getBuf, putBuf
	getBuf = func() *bodybuf.Buf { held++; return oldGet() }
	putBuf = func(b *bodybuf.Buf) { held--; oldPut(b) }
	t.Cleanup(func() { getBuf, putBuf = oldGet, oldPut })

	refreshes := 0
	transport := roundTripFunc(func(r *http.Request) (*http.Response, error) {
		if strings.HasPrefix(r.URL.Path, deltahttp.BasePathPrefix+"cls/2") {
			refreshes++
			if held != 0 {
				t.Errorf("base refresh started with %d pooled buffers still held", held)
			}
		}
		return http.DefaultTransport.RoundTrip(r)
	})
	c := New(srv.URL, WithHTTPClient(&http.Client{Transport: transport}))
	if _, err := c.Get("/doc"); err != nil || c.HeldVersion("cls") != 1 {
		t.Fatalf("setup: err=%v, held v%d", err, c.HeldVersion("cls"))
	}
	got, err := c.Get("/doc")
	if err != nil || !bytes.Equal(got, doc) {
		t.Fatalf("delta Get: err=%v, %d bytes", err, len(got))
	}
	if refreshes != 1 || c.HeldVersion("cls") != 2 {
		t.Fatalf("%d refreshes, held v%d; want the delta Get to refresh to v2", refreshes, c.HeldVersion("cls"))
	}
	if held != 0 {
		t.Errorf("%d pooled buffers never returned", held)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }
