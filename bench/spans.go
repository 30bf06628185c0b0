package main

import (
	"context"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cbde/internal/deltahttp"
)

// spanHeader carries the calling span's ID across an HTTP hop. Only bench
// code reads or writes it; the delta-server clones it onto forwards along
// with every other request header, and the forwarding transport overwrites
// it there.
const spanHeader = "X-Bench-Span"

type spanKind uint8

const (
	spanGet         spanKind = iota // deltaclient.Client.Get, the root
	spanClientDoc                   // client round trip for a document
	spanClientBase                  // client round trip for a base-file
	spanFrontServe                  // delta-server serving a client-facing document request
	spanPeerServe                   // delta-server serving an X-CBDE-Forwarded document request
	spanBaseServe                   // delta-server serving /_cbde/base/
	spanOriginFetch                 // delta-server round trip to the origin, to body EOF
	spanForward                     // delta-server round trip to a peer, to body EOF
	spanOriginServe                 // origin handler
)

// span is one timed interval at a layer boundary. IDs are dense (1, 2, …)
// so analysis can index by them; parent 0 means none.
type span struct {
	id, parent uint32
	kind       spanKind
	start, end int64 // ns since the recorder's epoch
}

// recorder keeps spans in memory until the run ends. While off, every
// wrapper below costs one atomic load.
type recorder struct {
	on    atomic.Bool
	next  atomic.Uint32
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// start switches recording on, with room for a traced phase's spans so the
// phase does not pay for growing the slice.
func (r *recorder) start() {
	r.mu.Lock()
	if r.spans == nil {
		r.spans = make([]span, 0, 1<<18)
	}
	r.mu.Unlock()
	r.on.Store(true)
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) newID() uint32 { return r.next.Add(1) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

type spanCtxKey struct{}

// withSpanHeader returns a shallow copy of req whose header names id as the
// calling span; a RoundTripper must not modify the request it was given.
func withSpanHeader(req *http.Request, id uint32) *http.Request {
	r2 := new(http.Request)
	*r2 = *req
	r2.Header = req.Header.Clone()
	r2.Header.Set(spanHeader, strconv.FormatUint(uint64(id), 10))
	return r2
}

func parentFromHeader(r *http.Request) uint32 {
	v, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 32)
	return uint32(v)
}

// eofBody ends its span when the response body is drained or closed,
// whichever comes first: a round trip is timed to body EOF.
type eofBody struct {
	io.ReadCloser
	rec  *recorder
	s    span
	done bool
}

func (b *eofBody) finish() {
	if !b.done {
		b.done = true
		b.s.end = b.rec.now()
		b.rec.add(b.s)
	}
}

func (b *eofBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err != nil {
		b.finish()
	}
	return n, err
}

func (b *eofBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

// roundTrip runs one traced round trip as a child of parent.
func (r *recorder) roundTrip(base http.RoundTripper, req *http.Request, kind spanKind, parent uint32) (*http.Response, error) {
	s := span{id: r.newID(), parent: parent, kind: kind, start: r.now()}
	resp, err := base.RoundTrip(withSpanHeader(req, s.id))
	if err != nil {
		s.end = r.now()
		r.add(s)
		return nil, err
	}
	resp.Body = &eofBody{ReadCloser: resp.Body, rec: r, s: s}
	return resp, nil
}

// clientTransport is one worker's view of the shared client transport. A
// worker runs one Get at a time and deltaclient issues its round trips on
// the calling goroutine, so root needs no synchronisation.
type clientTransport struct {
	base http.RoundTripper
	rec  *recorder
	root uint32 // span ID of the worker's Get in progress
}

func (t *clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.on.Load() {
		return t.base.RoundTrip(req)
	}
	kind := spanClientDoc
	if strings.HasPrefix(req.URL.Path, deltahttp.BasePathPrefix) {
		kind = spanClientBase
	}
	return t.rec.roundTrip(t.base, req, kind, t.root)
}

// serverTransport is handed to deltaserver.WithHTTPClient: it times origin
// fetches and peer forwards, taking the parent span from the request
// context the delta-server derives its outgoing requests from.
type serverTransport struct {
	base       http.RoundTripper
	rec        *recorder
	originHost string
}

func (t *serverTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.on.Load() {
		return t.base.RoundTrip(req)
	}
	parent, _ := req.Context().Value(spanCtxKey{}).(uint32)
	kind := spanForward
	if req.URL.Host == t.originHost {
		kind = spanOriginFetch
	}
	return t.rec.roundTrip(t.base, req, kind, parent)
}

// traceServer wraps one delta-server's ServeHTTP: it times the handler,
// tells client-facing from forwarded arrivals and documents from base-file
// requests, and puts its span ID in the request context for serverTransport.
func traceServer(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		s := span{id: rec.newID(), parent: parentFromHeader(r), kind: spanFrontServe, start: rec.now()}
		switch {
		case strings.HasPrefix(r.URL.Path, deltahttp.BasePathPrefix):
			s.kind = spanBaseServe
		case r.Header.Get(deltahttp.HeaderForwarded) != "":
			s.kind = spanPeerServe
		}
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), spanCtxKey{}, s.id)))
		s.end = rec.now()
		rec.add(s)
	})
}

// traceOrigin wraps the origin's handler (inside the digest wrapper).
func traceOrigin(rec *recorder, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !rec.on.Load() {
			next.ServeHTTP(w, r)
			return
		}
		s := span{id: rec.newID(), parent: parentFromHeader(r), kind: spanOriginServe, start: rec.now()}
		next.ServeHTTP(w, r)
		s.end = rec.now()
		rec.add(s)
	})
}

// spanMetrics folds the recorded spans into the per-layer timing metrics.
// A span's self time is its duration minus the durations of its children
// (children of one span never overlap: every layer here is sequential).
func spanMetrics(spans []span, m map[string]float64) {
	var maxID uint32
	for _, s := range spans {
		if s.id > maxID {
			maxID = s.id
		}
	}
	byID := make([]span, maxID+1)
	childSum := make([]int64, maxID+1)
	childN := make([]int32, maxID+1)
	hasKind := make([][spanOriginServe + 1]bool, maxID+1)
	for _, s := range spans {
		byID[s.id] = s
	}
	for _, s := range spans {
		if s.parent != 0 && s.parent <= maxID && byID[s.parent].id != 0 {
			childSum[s.parent] += s.end - s.start
			childN[s.parent]++
			hasKind[s.parent][s.kind] = true
		}
	}

	var get, getSelf, serve, serveSelf, originFetch, baseServe, hop, peerServe, originServe []float64
	var roots, roundTrips int
	for _, s := range spans {
		us := float64(s.end-s.start) / 1e3
		selfUS := float64(s.end-s.start-childSum[s.id]) / 1e3
		switch s.kind {
		case spanGet:
			roots++
			roundTrips += int(childN[s.id])
			get = append(get, us)
			getSelf = append(getSelf, selfUS)
		case spanFrontServe:
			serve = append(serve, us)
			if hasKind[s.id][spanOriginFetch] {
				serveSelf = append(serveSelf, selfUS)
			}
		case spanPeerServe:
			peerServe = append(peerServe, us)
			if hasKind[s.id][spanOriginFetch] {
				serveSelf = append(serveSelf, selfUS)
			}
		case spanBaseServe:
			baseServe = append(baseServe, us)
		case spanOriginFetch:
			originFetch = append(originFetch, us)
		case spanForward:
			// The hop is what the forward costs beyond the peer's own
			// serving: connection, two header clones, the relay copy.
			if hasKind[s.id][spanPeerServe] {
				hop = append(hop, selfUS)
			}
		case spanOriginServe:
			originServe = append(originServe, us)
		}
	}

	m["deltaclient.get_us_p50"] = quantile(get, 0.50)
	m["deltaclient.get_us_p99"] = quantile(get, 0.99)
	m["deltaclient.self_us_p50"] = quantile(getSelf, 0.50)
	m["deltaclient.roundtrips_per_get"] = ratio(float64(roundTrips), float64(roots))
	m["deltaserver.serve_us_p50"] = quantile(serve, 0.50)
	m["deltaserver.serve_us_p99"] = quantile(serve, 0.99)
	m["deltaserver.self_us_p50"] = quantile(serveSelf, 0.50)
	m["deltaserver.origin_fetch_us_p50"] = quantile(originFetch, 0.50)
	m["deltaserver.base_serve_us_p50"] = quantile(baseServe, 0.50)
	m["cluster.forward_hop_us_p50"] = quantile(hop, 0.50)
	m["cluster.peer_serve_us_p50"] = quantile(peerServe, 0.50)
	m["origin.serve_us_p50"] = quantile(originServe, 0.50)
}
