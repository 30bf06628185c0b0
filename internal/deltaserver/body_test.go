package deltaserver

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbde/internal/anonymize"
	"cbde/internal/core"
	"cbde/internal/deltaclient"
	"cbde/internal/deltahttp"
	"cbde/internal/flightrec"
)

// shrinkOriginBound lowers maxOriginBody for one test.
func shrinkOriginBound(t *testing.T, n int) {
	old := maxOriginBody
	maxOriginBody = n
	t.Cleanup(func() { maxOriginBody = old })
}

// frontFor puts a delta-server with a default engine in front of a stub origin.
func frontFor(t *testing.T, origin http.HandlerFunc, opts ...Option) (*core.Engine, *httptest.Server) {
	t.Helper()
	originSrv := httptest.NewServer(origin)
	t.Cleanup(originSrv.Close)
	eng, err := core.NewEngine(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(originSrv.URL, eng, opts...)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(srv)
	t.Cleanup(front.Close)
	return eng, front
}

// An origin body over the bound is relayed — every byte, in order, neither
// failed nor buffered: the origin refuses to send its second half until the
// client holds some of the first, which a server that reads the whole body
// before answering can never satisfy.
func TestOversizedOriginBodyIsRelayed(t *testing.T) {
	const bound = 1 << 20
	shrinkOriginBound(t, bound)
	want := make([]byte, 2*bound)
	for i := range want {
		want[i] = byte(i>>10 + i)
	}
	for _, stated := range []bool{false, true} {
		t.Run(fmt.Sprintf("length stated=%v", stated), func(t *testing.T) {
			clientReading := make(chan struct{})
			var stalled atomic.Bool
			fr := flightrec.New("local", 16, 0)
			eng, front := frontFor(t, func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "text/x-huge")
				if stated {
					w.Header().Set("Content-Length", strconv.Itoa(len(want)))
				}
				half := bound + 64<<10
				_, _ = w.Write(want[:half])
				w.(http.Flusher).Flush()
				select {
				case <-clientReading:
				case <-time.After(10 * time.Second):
					stalled.Store(true)
				}
				_, _ = w.Write(want[half:])
			}, WithFlightRecorder(fr))

			req, _ := http.NewRequest(http.MethodGet, front.URL+"/huge", nil)
			req.Header.Set(deltahttp.HeaderCapable, "1")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			got := make([]byte, 4096)
			if _, err := io.ReadFull(resp.Body, got); err != nil {
				t.Fatal(err)
			}
			close(clientReading)
			rest, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, rest...)
			if stalled.Load() {
				t.Error("the server held the response back until the origin finished: buffered, not relayed")
			}
			if !bytes.Equal(got, want) {
				t.Errorf("client received %d bytes, want the origin's %d byte for byte", len(got), len(want))
			}
			if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "text/x-huge" {
				t.Errorf("status %d, Content-Type %q", resp.StatusCode, ct)
			}
			if n := eng.Stats().Requests; n != 0 {
				t.Errorf("engine saw %d requests, want the oversized body kept away from it", n)
			}
			recs := fr.Snapshot(flightrec.Filter{})
			if len(recs) != 1 || recs[0].Outcome != flightrec.OutcomePassthrough || recs[0].DocBytes != int64(len(want)) {
				t.Errorf("flight record = %+v, want one passthrough of %d bytes", recs, len(want))
			}
		})
	}
}

// A body of exactly the bound is still a document: buffered and encoded.
func TestOriginBodyAtBoundIsEncoded(t *testing.T) {
	const bound = 64 << 10
	shrinkOriginBound(t, bound)
	doc := bytes.Repeat([]byte("0123456789abcdef"), bound/16)
	eng, front := frontFor(t, func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(doc)
	}, WithPublicHost("www.shop.com"))
	resp, body := doGet(t, front.URL+"/laptops/1", nil)
	if !bytes.Equal(body, doc) || resp.Header.Get(deltahttp.HeaderClass) == "" || eng.Stats().Requests != 1 {
		t.Errorf("%d bytes back, class %q, engine requests %d", len(body), resp.Header.Get(deltahttp.HeaderClass), eng.Stats().Requests)
	}
}

// Delta, full-document and base-file responses state their length, locally
// and relayed from a peer, so a client reads each into one exact allocation.
func TestResponsesStateTheirLength(t *testing.T) {
	_, _, front := newStack(t, core.Config{Anon: anonymize.Config{M: 1, N: 3}})
	classID, version := warm(t, front.URL, 6)
	stated := func(name string, resp *http.Response, body []byte) {
		t.Helper()
		if resp.StatusCode != http.StatusOK || len(body) == 0 {
			t.Fatalf("%s: status %d, %d bytes", name, resp.StatusCode, len(body))
		}
		if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
			t.Errorf("%s: Content-Length %d, Transfer-Encoding %v for a %d-byte body", name, resp.ContentLength, resp.TransferEncoding, len(body))
		}
	}
	resp, body := doGet(t, front.URL+"/laptops/1", map[string]string{deltahttp.HeaderUser: "alice"})
	stated("full", resp, body)
	resp, body = doGet(t, front.URL+deltahttp.BasePath(classID, version), nil)
	stated("base", resp, body)
	resp, body = doGet(t, front.URL+"/laptops/1", map[string]string{
		deltahttp.HeaderUser: "alice", deltahttp.HeaderCapable: "1",
		deltahttp.HeaderHave: haveHeader(classID, version),
	})
	if resp.Header.Get(deltahttp.HeaderEncoding) == "" {
		t.Fatal("expected a delta")
	}
	stated("delta", resp, body)
}

// Eight delta clients, each its own user with its own personalized pages,
// through a real server under -race: every reconstructed document must be
// what the origin renders for that user. An origin buffer released before its
// response was written, or shared between two requests in flight, shows up
// here as another user's page (or as a decode error), not in a benchmark.
func TestConcurrentClientsGetTheirOwnDocuments(t *testing.T) {
	var tick atomic.Int64 // newStack's default clock is for one goroutine
	site, _, front := newStack(t, core.Config{
		Anon: anonymize.Config{M: 1, N: 3},
		Now:  func() time.Time { return time.Unix(1_000_000+tick.Add(1), 0) },
	})
	const workers, rounds = 8, 300
	var wg sync.WaitGroup
	deltas := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			user := fmt.Sprintf("user-%d", w)
			c := deltaclient.New(front.URL, deltaclient.WithUser(user))
			for i := 0; i < rounds; i++ {
				item := (i + w) % 10
				got, err := c.Get(fmt.Sprintf("/laptops/%d", item))
				if err != nil {
					t.Errorf("%s round %d: %v", user, i, err)
					return
				}
				want, err := site.Render("laptops", item, user, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s round %d: reconstructed /laptops/%d is not the page the origin renders for this user", user, i, item)
					return
				}
			}
			deltas[w] = c.Stats().DeltaResponses
		}(w)
	}
	wg.Wait()
	for w, n := range deltas {
		if !t.Failed() && n < rounds/2 {
			t.Errorf("user-%d got %d deltas in %d requests: the pooled paths barely ran", w, n, rounds)
		}
	}
}
