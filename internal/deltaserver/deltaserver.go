// Package deltaserver implements the delta-server of Section VI-C: a
// transparent HTTP front placed next to the web-server (Figure 2).
//
// Every request is forwarded to the origin to obtain the current document
// snapshot (the delta-server sits adjacent to the web-server, so this hop is
// cheap). The snapshot runs through the class-based delta-encoding engine;
// delta-capable clients receive a small (gzipped) delta against the
// class's base-file, everyone else receives the document unchanged. Class
// base-files are served from a cachable endpoint so ordinary proxy-caches
// between server and clients absorb base-file distribution.
package deltaserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"cbde/internal/bodybuf"
	"cbde/internal/cluster"
	"cbde/internal/core"
	"cbde/internal/deltahttp"
	"cbde/internal/flightrec"
	"cbde/internal/metrics"
	"cbde/internal/obs"
	"cbde/internal/store"
)

// Version identifies the build in cbde_build_info and /_cbde/health;
// overridable at link time with
// -ldflags "-X cbde/internal/deltaserver.Version=v1.2.3".
var Version = "dev"

// Option configures a Server.
type Option func(*Server)

// WithPublicHost overrides the host used as the server-part when grouping
// request URLs. By default the request's Host header is used; behind test
// servers or load balancers a stable public host keeps class identities
// stable.
func WithPublicHost(host string) Option {
	return func(s *Server) { s.publicHost = host }
}

// WithHTTPClient replaces the HTTP client used to reach the origin.
func WithHTTPClient(c *http.Client) Option {
	return func(s *Server) { s.client = c }
}

// WithCookieIdentity makes the server assign a "uid" cookie to requests
// that carry no user identity — the paper's cookie-based user
// identification (Section V). Anonymization counts distinct users by these
// identities, so unidentified traffic would otherwise never complete it.
func WithCookieIdentity() Option {
	return func(s *Server) { s.assignCookies = true }
}

// WithCluster joins the server to a delta-server tier: document requests
// for classes this node does not own are forwarded (or 307-redirected) to
// the owning peer, and base-files missing locally are fetched peer-to-peer
// from the owner. The caller owns the cluster's prober lifecycle (Start /
// Stop).
func WithCluster(c *cluster.Cluster) Option {
	return func(s *Server) { s.cluster = c }
}

// WithRequestLog makes the server emit one structured log record per
// document request: a monotone request ID, route, user, response kind and
// wire size, total duration, and — when the engine's tracer is enabled —
// the per-stage span summary.
func WithRequestLog(l *slog.Logger) Option {
	return func(s *Server) { s.log = l }
}

// WithNodeID names this node in trace contexts, flight-recorder records,
// the health endpoint, and cbde_build_info. Defaults to "local"; clustered
// servers should pass their cluster node ID.
func WithNodeID(id string) Option {
	return func(s *Server) {
		if id != "" {
			s.nodeID = id
		}
	}
}

// WithFlightRecorder attaches a flight recorder: every document request is
// recorded (compactly; with span detail when tail-sampled) and the ring is
// served at /_cbde/trace. Without one the endpoint 404s.
func WithFlightRecorder(fr *flightrec.Recorder) Option {
	return func(s *Server) { s.flight = fr }
}

// baseCacheControl lets proxy-caches keep a base-file version for an hour.
// Versions are immutable, so the bound only limits how long a cache holds
// one that the class has since pruned.
const baseCacheControl = "public, max-age=3600"

// Server is the delta-server: an http.Handler fronting one origin.
type Server struct {
	origin        *url.URL
	engine        *core.Engine
	client        *http.Client
	publicHost    string
	assignCookies bool
	uidCounter    atomic.Uint64
	log           *slog.Logger
	reqSeq        atomic.Uint64
	cluster       *cluster.Cluster
	nodeID        string
	flight        *flightrec.Recorder
	started       time.Time
}

var _ http.Handler = (*Server)(nil)

// New returns a Server forwarding to originURL and encoding with engine.
func New(originURL string, engine *core.Engine, opts ...Option) (*Server, error) {
	u, err := url.Parse(originURL)
	if err != nil {
		return nil, fmt.Errorf("deltaserver: parse origin URL: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("deltaserver: origin URL %q needs scheme and host", originURL)
	}
	s := &Server{
		origin:  u,
		engine:  engine,
		client:  &http.Client{Timeout: 30 * time.Second},
		nodeID:  "local",
		started: time.Now(),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.engine.Metrics().RegisterCollector(func(c *metrics.Collection) {
		c.Gauge("cbde_build_info",
			"Build and runtime identity; the value is always 1.",
			[]metrics.Label{
				{Name: "version", Value: Version},
				{Name: "goversion", Value: runtime.Version()},
				{Name: "node", Value: s.nodeID},
			}, 1)
	})
	return s, nil
}

// Engine returns the server's encoding engine (for stats).
func (s *Server) Engine() *core.Engine { return s.engine }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case strings.HasPrefix(r.URL.Path, deltahttp.BasePathPrefix):
		s.serveBase(w, r)
	case r.URL.Path == deltahttp.StatsPath:
		s.serveStats(w, r)
	case r.URL.Path == deltahttp.MetricsPath:
		s.serveMetrics(w)
	case r.URL.Path == deltahttp.StorePath:
		s.serveStore(w)
	case r.URL.Path == deltahttp.HealthPath:
		s.serveHealth(w)
	case r.URL.Path == deltahttp.ClusterPath:
		s.serveCluster(w)
	case r.URL.Path == deltahttp.TracePath:
		s.serveTrace(w, r)
	case r.Method != http.MethodGet:
		// Only GET responses are delta-encoded; everything else passes
		// through untouched (transparency).
		s.proxyRaw(w, r)
	default:
		s.serveDocument(w, r)
	}
}

// proxyRaw forwards a request verbatim to the origin.
func (s *Server) proxyRaw(w http.ResponseWriter, r *http.Request) {
	u := *s.origin
	u.Path = r.URL.Path
	u.RawQuery = r.URL.RawQuery
	req, err := http.NewRequestWithContext(r.Context(), r.Method, u.String(), r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	req.Header = r.Header.Clone()
	resp, err := s.client.Do(req)
	if err != nil {
		http.Error(w, fmt.Sprintf("origin request failed: %v", err), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// serveBase serves a class base-file as a cachable object. Base versions
// are immutable once installed, so the engine's view accessor hands out the
// stored bytes directly — no per-request copy, and only read locks on the
// engine's sharded class table.
func (s *Server) serveBase(w http.ResponseWriter, r *http.Request) {
	classID, version, err := deltahttp.ParseBasePath(r.URL.Path)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	base, ok := s.engine.BaseFileView(classID, version)
	if !ok {
		// Not resident here. In a cluster the class owner minted (and
		// holds) the version, so fetch it peer-to-peer through the owner's
		// own cachable base endpoint — one hop, same guard as documents.
		if s.cluster != nil && r.Header.Get(deltahttp.HeaderForwarded) == "" {
			owner := s.cluster.Owner(core.OwnerKeyForClass(classID))
			if owner.ID != s.cluster.Self().ID && s.proxyBase(w, r, owner) {
				return
			}
		}
		http.Error(w, "base-file not available", http.StatusNotFound)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Cache-Control", baseCacheControl)
	h.Set(deltahttp.HeaderClass, classID)
	h.Set(deltahttp.HeaderBaseVersion, strconv.Itoa(version))
	writeBody(w, base)
}

// writeBody writes a complete body under its Content-Length. Left to itself
// net/http chunks anything past its 2 KB sniff buffer, and a client told the
// length up front reads the body into one exactly-sized slice.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// proxyBase relays a base-file request to the owning peer. Reports whether
// the response was written; a transport failure or a miss at the owner
// leaves the response untouched so the caller can 404.
func (s *Server) proxyBase(w http.ResponseWriter, r *http.Request, owner cluster.Node) bool {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, owner.URL+r.URL.RequestURI(), nil)
	if err != nil {
		return false
	}
	req.Header.Set(deltahttp.HeaderForwarded, s.cluster.Self().ID)
	// A base fetch riding a traced request keeps its trace across the hop.
	if ctx, ok := obs.ParseTraceContext(r.Header.Get(deltahttp.HeaderTrace)); ok {
		req.Header.Set(deltahttp.HeaderTrace, ctx.Next().HeaderValue())
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return false
	}
	s.cluster.Ctr.RemoteBase.Inc()
	h := w.Header()
	for k, vs := range resp.Header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	return true
}

// serveStats dumps engine counters (plain text), or serves per-class stats
// rows as JSON when the class query parameter is present: ?class=<id> for
// one class, ?class=* for every class sorted by ID.
func (s *Server) serveStats(w http.ResponseWriter, r *http.Request) {
	if class := r.URL.Query().Get("class"); class != "" {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if class == "*" {
			_ = enc.Encode(s.engine.AllClassStats())
			return
		}
		st, ok := s.engine.ClassStats(class)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown class %q", class), http.StatusNotFound)
			return
		}
		_ = enc.Encode(st)
		return
	}
	st := s.engine.Stats()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "mode %s\nrequests %d\nfull %d\ndelta %d\nbytes.direct %d\nbytes.delta %d\nbytes.full %d\nclasses %d\nstorage %d\nsavings %.4f\n",
		st.Mode, st.Requests, st.FullResponses, st.DeltaResponses,
		st.BytesDirect, st.BytesDelta, st.BytesFull, st.Classes, st.StorageBytes, st.Savings())
	fmt.Fprintln(w)
	fmt.Fprintln(w, s.engine.Metrics().Snapshot())
}

// serveStore serves the storage-governance snapshot: budget, resident
// bytes by kind, resident/tracked class counts, the recent prune/evict
// log, the delta memo-cache summary, the version-graph summary, and the
// disk tier. The store.Stats fields stay at the top level (CI's
// store-smoke job asserts on them); the cache summary rides along under
// "deltaCache" (CI's memo-smoke job), the graph under "graph" (CI's
// graph-smoke job), and the disk tier under "disk" (CI's spill-smoke job;
// Enabled false when the server runs without -spill-dir, so tooling can
// feature-detect it).
func (s *Server) serveStore(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		store.Stats
		DeltaCache core.DeltaCacheStats `json:"deltaCache"`
		Graph      core.GraphStats      `json:"graph"`
		Disk       store.TierStats      `json:"disk"`
	}{s.engine.StoreStats(), s.engine.DeltaCacheStats(), s.engine.GraphStats(), s.engine.SpillStats()})
}

// serveMetrics serves the engine's registry as Prometheus text exposition —
// the endpoint a scraper points at.
func (s *Server) serveMetrics(w http.ResponseWriter) {
	w.Header().Set("Content-Type", metrics.ExpositionContentType)
	_ = s.engine.Metrics().Expose(w)
}

// serveHealth answers the cluster prober (and any external checker): a 200
// means the server is taking traffic. The body identifies the node and its
// uptime so cbdestat trace can label hops; the prober only checks the
// status code, so the JSON body is free to evolve.
func (s *Server) serveHealth(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(Health{
		Status:        "ok",
		Node:          s.nodeID,
		Version:       Version,
		UptimeSeconds: int64(time.Since(s.started).Seconds()),
	})
}

// Health is the /_cbde/health response body.
type Health struct {
	Status        string `json:"status"`
	Node          string `json:"node"`
	Version       string `json:"version"`
	UptimeSeconds int64  `json:"uptimeSeconds"`
}

// serveTrace serves the flight-recorder ring as NDJSON, newest first,
// filtered by the query parameters: ?class=<id>, ?min-ms=<float>,
// ?outcome=<name>, ?trace=<32-hex id>, ?sampled=1, ?limit=<n>. 404 when no
// recorder is attached, so tooling can feature-detect it.
func (s *Server) serveTrace(w http.ResponseWriter, r *http.Request) {
	if s.flight == nil {
		http.Error(w, "flight recorder disabled", http.StatusNotFound)
		return
	}
	q := r.URL.Query()
	f := flightrec.Filter{Class: q.Get("class")}
	if v := q.Get("min-ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			http.Error(w, fmt.Sprintf("bad min-ms %q", v), http.StatusBadRequest)
			return
		}
		f.Min = time.Duration(ms * float64(time.Millisecond))
	}
	if v := q.Get("outcome"); v != "" {
		o, ok := flightrec.ParseOutcome(v)
		if !ok {
			http.Error(w, fmt.Sprintf("unknown outcome %q", v), http.StatusBadRequest)
			return
		}
		f.Outcome = o
	}
	if v := q.Get("trace"); v != "" {
		id, ok := obs.ParseTraceID(v)
		if !ok {
			http.Error(w, fmt.Sprintf("bad trace ID %q", v), http.StatusBadRequest)
			return
		}
		f.Trace = id
	}
	if q.Get("sampled") == "1" {
		f.SampledOnly = true
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			http.Error(w, fmt.Sprintf("bad limit %q", v), http.StatusBadRequest)
			return
		}
		f.Limit = n
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	_, _ = s.flight.WriteNDJSON(w, f)
}

// serveCluster serves this node's cluster view as JSON: membership with
// liveness, owned-class share, and the tier's traffic counters. 404 when
// the server runs standalone, so tooling can feature-detect the tier.
func (s *Server) serveCluster(w http.ResponseWriter) {
	if s.cluster == nil {
		http.Error(w, "not clustered", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.cluster.Status())
}

// reqRecord accumulates what one document request's log line and
// flight-recorder entry report.
type reqRecord struct {
	id       uint64
	start    time.Time
	outcome  flightrec.Outcome
	reason   core.Reason // the engine's reason, when it answered
	class    string
	user     string
	docLen   int
	wire     int // payload bytes on the client-facing link
	trace    *obs.Summary
	traceCtx obs.TraceContext
	capable  bool             // client advertised delta capability
	reasons  flightrec.Reason // sampling triggers observed by the HTTP layer
}

// finish flushes the record at the end of a document request: a
// flight-recorder entry (always, when a recorder is attached) and a
// structured log line (when request logging is on).
func (s *Server) finish(r *http.Request, rec *reqRecord) {
	if s.flight != nil {
		frec := flightrec.Record{
			Trace:     rec.traceCtx,
			Class:     rec.class,
			Outcome:   rec.outcome,
			Start:     rec.start.UnixNano(),
			Total:     time.Since(rec.start),
			DocBytes:  int64(rec.docLen),
			WireBytes: int64(rec.wire),
			Reasons:   rec.reasons,
		}
		if rec.trace != nil {
			frec.Spans = rec.trace.Stages
			if fi := frec.Spans[obs.StageFaultIn]; fi.Dur > 0 || fi.Bytes > 0 {
				frec.Reasons |= flightrec.ReasonFaultIn
			}
		}
		if rec.reason != 0 {
			frec.EngineReason = rec.reason.String()
		}
		if rec.capable && rec.outcome == flightrec.OutcomeFull {
			// A delta-capable client got the whole document: the degradation
			// the tail sampler exists to explain.
			frec.Reasons |= flightrec.ReasonDegraded
		}
		if rec.outcome == flightrec.OutcomeOriginError || rec.outcome == flightrec.OutcomeEngineError {
			frec.Reasons |= flightrec.ReasonError
		}
		s.flight.Record(frec)
	}
	if s.log != nil {
		s.emit(r, rec)
	}
}

// emit writes the record as one structured slog line.
func (s *Server) emit(r *http.Request, rec *reqRecord) {
	attrs := []slog.Attr{
		slog.Uint64("rid", rec.id),
		slog.String("path", r.URL.RequestURI()),
		slog.String("outcome", rec.outcome.String()),
		slog.Duration("dur", time.Since(rec.start)),
		slog.Int("doc_bytes", rec.docLen),
		slog.Int("wire_bytes", rec.wire),
	}
	if rec.reason != 0 {
		attrs = append(attrs, slog.String("reason", rec.reason.String()))
	}
	if rec.user != "" {
		attrs = append(attrs, slog.String("user", rec.user))
	}
	if rec.class != "" {
		attrs = append(attrs, slog.String("class", rec.class))
	}
	if !rec.traceCtx.IsZero() {
		attrs = append(attrs, slog.String("trace", rec.traceCtx.ID.String()))
	}
	if rec.trace != nil {
		attrs = append(attrs, slog.String("spans", rec.trace.String()))
	}
	s.log.LogAttrs(r.Context(), slog.LevelInfo, "request", attrs...)
}

// serveDocument routes one document request through the cluster tier (when
// enabled) and then through the local encoding pipeline.
func (s *Server) serveDocument(w http.ResponseWriter, r *http.Request) {
	// Adopt the distributed trace context the request arrived with, or mint
	// one — this node is then the trace's origin. A malformed header mints
	// too: tracing degrades, it never fails a request.
	ctx, ok := obs.ParseTraceContext(r.Header.Get(deltahttp.HeaderTrace))
	if !ok {
		ctx = obs.TraceContext{ID: obs.NewTraceID(), Origin: s.nodeID}
	}
	var rec *reqRecord
	if s.log != nil || s.flight != nil {
		rec = &reqRecord{id: s.reqSeq.Add(1), start: time.Now(), outcome: flightrec.OutcomeFull, traceCtx: ctx}
		defer func() { s.finish(r, rec) }()
	}
	if s.cluster != nil && !s.dispatchOwned(w, r, rec, ctx) {
		return
	}
	s.serveDocumentLocal(w, r, rec, ctx)
}

// dispatchOwned implements the tier's ownership protocol for one document
// request. It reports true when the request should run the local pipeline:
// this node owns the class, the request already crossed its one allowed
// forward hop, or the forward failed and local serving is the fallback
// (any node serves any class correctly — ownership is affinity, not
// authority). It reports false when the response was already written: a
// proxied owner response, or a 307 redirect.
func (s *Server) dispatchOwned(w http.ResponseWriter, r *http.Request, rec *reqRecord, ctx obs.TraceContext) bool {
	if r.Header.Get(deltahttp.HeaderForwarded) != "" {
		// Hop guard: the request already crossed one intra-tier hop. Serve
		// it here no matter who we think owns it — under inconsistent
		// liveness views two nodes may each believe the other is the owner,
		// and bouncing would loop forever.
		s.cluster.Ctr.HopGuard.Inc()
		return true
	}
	host := s.publicHost
	if host == "" {
		host = r.Host
	}
	owner := s.cluster.Owner(s.engine.OwnerKey(host + r.URL.RequestURI()))
	if owner.ID == s.cluster.Self().ID {
		s.cluster.Ctr.Owned.Inc()
		return true
	}
	if s.cluster.Redirect() {
		s.cluster.Ctr.Redirected.Inc()
		if rec != nil {
			rec.outcome = flightrec.OutcomeRedirected
		}
		// Echo the trace context on the redirect. An http.Client re-sends
		// the original request headers on a 307, so a client that arrived
		// with the header presents the same trace ID at the owner; the echo
		// additionally hands clients without one the minted ID to attach.
		w.Header().Set(deltahttp.HeaderTrace, ctx.HeaderValue())
		http.Redirect(w, r, owner.URL+r.URL.RequestURI(), http.StatusTemporaryRedirect)
		return false
	}
	start := time.Now()
	wire, err := s.forward(w, r, owner, ctx)
	if err != nil {
		// Owner unreachable — typically the window between a peer dying and
		// the prober marking it dead. Fall back to serving locally so the
		// client never sees the failure.
		s.cluster.Ctr.ForwardErrors.Inc()
		if rec != nil {
			rec.reasons |= flightrec.ReasonForwardError
		}
		return true
	}
	s.cluster.Ctr.Forwarded.Inc()
	s.engine.ObserveForward(time.Since(start))
	if rec != nil {
		rec.outcome = flightrec.OutcomeForwarded
		rec.wire = wire
	}
	return false
}

// forward proxies a document request to the owning peer and relays the
// response verbatim. Returns the payload bytes relayed.
func (s *Server) forward(w http.ResponseWriter, r *http.Request, owner cluster.Node, ctx obs.TraceContext) (int, error) {
	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, owner.URL+r.URL.RequestURI(), nil)
	if err != nil {
		return 0, err
	}
	// The owner must classify on the original client's identity: every
	// request header crosses the hop intact — X-CBDE-User, Cookie, and the
	// delta capability/held-base set — and the Host header is preserved
	// because class identity derives from it. The owner's response headers
	// (including any Set-Cookie minting a uid) flow back the same way.
	req.Header = r.Header.Clone()
	req.Header.Set(deltahttp.HeaderForwarded, s.cluster.Self().ID)
	req.Header.Set(deltahttp.HeaderTrace, ctx.Next().HeaderValue())
	req.Host = r.Host
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	h := w.Header()
	for k, vs := range resp.Header {
		for _, v := range vs {
			h.Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	n, _ := io.Copy(w, resp.Body)
	return int(n), nil
}

// serveDocumentLocal fetches the current snapshot from the origin and
// responds with a delta or the full document.
func (s *Server) serveDocumentLocal(w http.ResponseWriter, r *http.Request, rec *reqRecord, ctx obs.TraceContext) {
	// Name the trace on the response so clients (and an operator with
	// curl -v) know which ID to look up in /_cbde/trace.
	w.Header().Set(deltahttp.HeaderTrace, ctx.HeaderValue())
	// The snapshot lives in a pooled buffer for the length of this handler:
	// the engine keeps nothing of Request.Doc past Process, and every path
	// below has written doc by the time the buffer goes back.
	buf := bodybuf.Get()
	defer buf.Release()
	origin, err := s.fetchOrigin(r, buf)
	if origin != nil {
		defer origin.Body.Close()
	}
	tooLarge := errors.Is(err, bodybuf.ErrTooLarge)
	if err != nil && !tooLarge {
		if rec != nil {
			rec.outcome = flightrec.OutcomeOriginError
		}
		http.Error(w, fmt.Sprintf("origin fetch failed: %v", err), http.StatusBadGateway)
		return
	}
	doc, contentType := buf.B, origin.Header.Get("Content-Type")
	if rec != nil {
		rec.docLen = len(doc)
		rec.wire = len(doc)
	}
	if tooLarge || origin.StatusCode != http.StatusOK {
		// Pass through untouched: a non-OK origin response, or a body too
		// large to buffer — what was read, then the rest straight across.
		if rec != nil {
			rec.outcome = flightrec.OutcomePassthrough
		}
		w.Header().Set("Content-Type", contentType)
		w.WriteHeader(origin.StatusCode)
		_, _ = w.Write(doc)
		if tooLarge {
			n, _ := io.Copy(w, origin.Body)
			if rec != nil {
				rec.docLen += int(n)
				rec.wire = rec.docLen
			}
		}
		return
	}

	host := s.publicHost
	if host == "" {
		host = r.Host
	}
	user := userOf(r)
	if user == "" && s.assignCookies {
		// First contact from an unidentified browser: mint an identity and
		// hand it back as a cookie (the paper's user identification).
		user = fmt.Sprintf("uid-%d-%d", time.Now().UnixNano(), s.uidCounter.Add(1))
		http.SetCookie(w, &http.Cookie{Name: "uid", Value: user, Path: "/"})
	}
	req := core.Request{
		URL:      host + r.URL.RequestURI(),
		UserID:   user,
		Doc:      doc,
		TraceCtx: ctx,
	}
	if r.Header.Get(deltahttp.HeaderCapable) != "" && deltahttp.AcceptsVdelta(r.Header.Get(deltahttp.HeaderAccept)) {
		if rec != nil {
			rec.capable = true
		}
		for _, h := range deltahttp.ParseHave(r.Header.Get(deltahttp.HeaderHave)) {
			req.Held = append(req.Held, core.HeldBase{ClassID: h.ClassID, Version: h.Version})
		}
	}

	if rec != nil {
		rec.user = user
	}
	resp, err := s.engine.Process(req)
	if err != nil {
		// The engine could not handle the request (e.g. unparseable URL):
		// stay transparent and serve the document.
		if rec != nil {
			rec.outcome = flightrec.OutcomeEngineError
		}
		w.Header().Set("Content-Type", contentType)
		writeBody(w, doc)
		return
	}
	if rec != nil {
		rec.class = resp.ClassID
		rec.trace = resp.Trace
		rec.reason = resp.Reason
		if resp.Kind == core.KindDelta {
			rec.outcome = flightrec.OutcomeDelta
			rec.wire = len(resp.Payload)
		}
	}

	h := w.Header()
	if resp.ClassID != "" {
		h.Set(deltahttp.HeaderClass, resp.ClassID)
	}
	if resp.LatestVersion > 0 {
		h.Set(deltahttp.HeaderLatestVersion, strconv.Itoa(resp.LatestVersion))
	}
	if resp.Kind == core.KindDelta {
		enc := deltahttp.EncodingVdelta
		switch {
		case resp.Format == core.FormatVdeltaChain:
			// Chain framing carries per-segment gzip flags, so the payload
			// itself is never wrapped in an outer gzip layer.
			enc = deltahttp.EncodingVdeltaChain
			h.Set(deltahttp.HeaderChainLength, strconv.Itoa(resp.ChainLen))
		case resp.Gzipped:
			enc = deltahttp.EncodingVdeltaGzip
		}
		h.Set(deltahttp.HeaderEncoding, enc)
		h.Set(deltahttp.HeaderBaseVersion, strconv.Itoa(resp.BaseVersion))
		h.Set("Content-Type", "application/octet-stream")
		h.Set("Cache-Control", "no-cache")
		writeBody(w, resp.Payload)
		return
	}
	h.Set("Content-Type", contentType)
	h.Set("Cache-Control", "no-cache")
	writeBody(w, doc)
}

// maxOriginBody is the largest origin body the server buffers (and so the
// largest it delta-encodes); anything longer is relayed. A variable only so
// tests can shrink it.
var maxOriginBody = 64 << 20

// fetchOrigin retrieves the current document snapshot from the origin into
// buf, reading to EOF so the connection goes back to the idle pool. The
// response is returned whenever the origin answered, for the caller to close;
// with bodybuf.ErrTooLarge its Body still holds what buf does not.
func (s *Server) fetchOrigin(r *http.Request, buf *bodybuf.Buf) (*http.Response, error) {
	u := *s.origin
	u.Path = r.URL.Path
	u.RawQuery = r.URL.RawQuery

	req, err := http.NewRequestWithContext(r.Context(), http.MethodGet, u.String(), nil)
	if err != nil {
		return nil, fmt.Errorf("build origin request: %w", err)
	}
	// Forward identity so personalized origins render the right document.
	if user := userOf(r); user != "" {
		req.Header.Set(deltahttp.HeaderUser, user)
	}
	// Note: a freshly minted uid is not forwarded on this first request;
	// it takes effect once the browser echoes the cookie back.
	for _, c := range r.Cookies() {
		req.AddCookie(c)
	}

	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	buf.B, err = bodybuf.Read(buf.B, resp.Body, resp.ContentLength, maxOriginBody)
	if err != nil {
		err = fmt.Errorf("read origin response: %w", err)
	}
	return resp, err
}

// userOf extracts the user identity from the request (header, or the "uid"
// cookie the paper's cookie-based identification corresponds to).
func userOf(r *http.Request) string {
	if u := r.Header.Get(deltahttp.HeaderUser); u != "" {
		return u
	}
	if c, err := r.Cookie("uid"); err == nil {
		return c.Value
	}
	return ""
}
