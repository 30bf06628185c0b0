// Package core implements class-based delta-encoding — the paper's primary
// contribution. The Engine orchestrates the grouping mechanism (Section
// III), the randomized base-file selection (Section IV), the anonymization
// process (Section V), and the Vdelta codec into the request-processing
// pipeline a delta-server runs:
//
//  1. The request's URL is partitioned (server-part / hint-part / rest) and
//     grouped into a class; the class's single base-file serves every
//     member document.
//  2. The current document snapshot (fetched from the adjacent web-server)
//     is delta-encoded against the base-file the client holds; the (gzipped)
//     delta is shipped instead of the full document.
//  3. Every document feeds the class's base-file selector and the pending
//     anonymization process. Until a class's base-file has been anonymized
//     against N distinct users it is never distributed, and the class is
//     served full documents.
//
// The Engine also implements the classless baseline (one base-file per
// document, or per document per user when personalization is modeled),
// whose server-side storage blow-up motivates the class-based scheme.
package core

import (
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cbde/internal/anonymize"
	"cbde/internal/basefile"
	"cbde/internal/classify"
	"cbde/internal/deltacache"
	"cbde/internal/deltahttp"
	"cbde/internal/gzipx"
	"cbde/internal/metrics"
	"cbde/internal/obs"
	"cbde/internal/store"
	"cbde/internal/urlparts"
	"cbde/internal/vcdiff"
	"cbde/internal/vdelta"
)

// Mode selects how the engine maps documents to base-files.
type Mode int

const (
	// ModeClassBased is the paper's scheme: one base-file per class.
	ModeClassBased Mode = iota + 1
	// ModeClassless is the basic delta-encoding baseline: one base-file
	// per document URL.
	ModeClassless
	// ModeClasslessPerUser models personalized documents under the basic
	// scheme: one base-file per (URL, user) pair — the storage blow-up of
	// Section II.
	ModeClasslessPerUser
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeClassBased:
		return "class-based"
	case ModeClassless:
		return "classless"
	case ModeClasslessPerUser:
		return "classless-per-user"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parametrizes an Engine. The zero value selects class-based mode
// with the paper's default parameters.
type Config struct {
	// Mode selects class-based operation or a classless baseline.
	// Default ModeClassBased.
	Mode Mode
	// Rules partitions URLs per site. Default: the Table I heuristic only.
	Rules *urlparts.RuleSet
	// Classify configures the grouping mechanism (Section III).
	Classify classify.Config
	// Selector configures per-class base-file selection (Section IV).
	Selector basefile.Config
	// Anon configures base-file anonymization (Section V).
	Anon anonymize.Config
	// DisableAnonymization turns the anonymization stage off: base-files
	// are distributed immediately. The classless baselines imply this
	// (their base-files are private to a URL or user).
	DisableAnonymization bool
	// Codec configures the Vdelta coder.
	Codec []vdelta.Option
	// MaxDeltaRatio triggers a basic-rebase when the (uncompressed) delta
	// exceeds this fraction of the document size. Default 0.5.
	MaxDeltaRatio float64
	// GraphDepth bounds the per-class version graph: up to GraphDepth
	// recent base versions stay resident, linked by delta edges between
	// adjacent ones, so a client on any retained version is served a
	// direct delta or a composed chain of cached edges instead of a full
	// response. Depth 1 keeps only the current version (no edges).
	// Default 2.
	GraphDepth int
	// MemBudget caps resident class storage — installed base-file versions,
	// selector-held documents, and codec indexes — in bytes. Over budget,
	// the engine first prunes redundant per-class payload (old base
	// versions, sampled candidates), then evicts whole classes under a
	// CLOCK policy; an evicted class transparently serves full responses
	// and re-warms from traffic, never erroring. 0 (default) disables
	// governance: classes are retained forever, as before.
	MemBudget int64
	// SpillDir enables the disk tier, the engine's only persistence:
	// budget-evicted classes are demoted to compact binary records in
	// segment files under this directory and faulted back in — served as
	// deltas again — when traffic returns, and Checkpoint appends every
	// resident class's record plus the grouping. A restart with a
	// populated spill dir recovers the class index by scanning segment
	// headers; bodies fault in lazily. Empty (default) disables the tier:
	// eviction drops bytes, classes re-warm from traffic, and nothing
	// survives a restart.
	SpillDir string
	// DiskBudget caps the spill tier's on-disk bytes; over budget, oldest
	// segments are deleted and their classes degrade like plain evictions.
	// 0 (default) leaves the tier unbounded. Requires SpillDir.
	DiskBudget int64
	// DeltaCacheOff disables delta memoization. By default the engine
	// memoizes each encoded (class, fromVersion, document, format) delta
	// with singleflight coalescing (internal/deltacache), up to 256 per
	// class, so repeated and concurrent requests for the same delta share
	// one encode and one immutable payload. Cached bytes are charged to the
	// store ledger and reclaimed by budget maintenance.
	DeltaCacheOff bool
	// Tracing starts the engine with pipeline span tracing enabled (see
	// internal/obs). Default off; flip at runtime with SetTracing. Disabled
	// tracing costs one atomic load per request and zero allocations.
	Tracing bool
	// Now supplies time, for deterministic tests. Default time.Now.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.Mode == 0 {
		c.Mode = ModeClassBased
	}
	if c.Rules == nil {
		c.Rules = urlparts.NewRuleSet()
	}
	if c.MaxDeltaRatio <= 0 || c.MaxDeltaRatio > 1 {
		c.MaxDeltaRatio = 0.5
	}
	if c.GraphDepth <= 0 {
		c.GraphDepth = 2
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Mode != ModeClassBased {
		c.DisableAnonymization = true
		// Classless base-files are previous snapshots of the same document;
		// there is nothing to sample across.
		c.Selector.SampleProb = -1
	}
	return c
}

// Format selects the delta wire format for a response.
type Format int

const (
	// FormatVdelta is the internal vdelta instruction stream (default).
	FormatVdelta Format = iota + 1
	// FormatVCDIFF is the RFC 3284 interchange format (reference [12]).
	FormatVCDIFF
	// FormatVdeltaChain is a framed sequence of vdelta deltas the client
	// applies in order from the base version it holds: each cached edge
	// delta rewrites one retained version into the next, and the final
	// segment rewrites the current base into the document. Produced by the
	// version graph for lagging clients; never requested directly.
	FormatVdeltaChain
)

// String implements fmt.Stringer.
func (f Format) String() string {
	switch f {
	case FormatVdelta:
		return "vdelta"
	case FormatVCDIFF:
		return "vcdiff"
	case FormatVdeltaChain:
		return "vdelta-chain"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// HeldBase identifies one base-file a client holds in its cache.
type HeldBase struct {
	ClassID string
	Version int
}

// Request is one client request together with the current document snapshot
// the delta-server fetched from the web-server.
type Request struct {
	URL    string // full request URL
	UserID string // requesting user (cookie-derived in the paper)
	// Doc is the current snapshot of the dynamic document. Process only
	// borrows it: whatever the engine keeps (a candidate, a base-file, an
	// anonymization source, a class's match base) it copies, so the caller
	// may reuse the slice the moment Process returns.
	Doc []byte

	// Held lists the base-files the client holds for this server. The
	// client cannot know which class an unseen URL belongs to, so it
	// advertises everything it has; the engine picks the entry matching
	// the document's class, if any. Deltas are only sent against a
	// base-file the client holds.
	Held []HeldBase

	// HaveClassID and HaveVersion are a single-entry convenience
	// equivalent to one Held element.
	HaveClassID string
	HaveVersion int

	// TraceCtx is the distributed trace context the request arrived with
	// (or that the serving node minted). The zero value is fine; when set
	// and tracing is enabled, the finished Summary carries it and the
	// process-duration histogram records the trace ID as an exemplar.
	TraceCtx obs.TraceContext

	// Format selects the delta wire format (zero value: FormatVdelta).
	// Clients that implement RFC 3284 request FormatVCDIFF.
	Format Format
}

// forEachHeldVersion calls fn with every version of classID the client
// holds. It is a callback rather than a returned slice so the per-request
// hot path allocates nothing here.
func (r Request) forEachHeldVersion(classID string, fn func(v int)) {
	if r.HaveClassID == classID && r.HaveVersion > 0 {
		fn(r.HaveVersion)
	}
	for _, h := range r.Held {
		if h.ClassID == classID && h.Version > 0 {
			fn(h.Version)
		}
	}
}

// ResponseKind distinguishes full-document from delta responses.
type ResponseKind int

const (
	// KindFull means the response carries the complete document.
	KindFull ResponseKind = iota + 1
	// KindDelta means the response carries a delta against the base-file
	// identified by ClassID/BaseVersion.
	KindDelta
)

// String implements fmt.Stringer.
func (k ResponseKind) String() string {
	switch k {
	case KindFull:
		return "full"
	case KindDelta:
		return "delta"
	default:
		return fmt.Sprintf("ResponseKind(%d)", int(k))
	}
}

// Response is the engine's decision for one request.
type Response struct {
	Kind ResponseKind
	// ClassID identifies the document's class (empty while ungrouped in
	// classless modes before the first base exists).
	ClassID string
	// BaseVersion is the base-file version the delta was encoded against
	// (KindDelta), or 0.
	BaseVersion int
	// LatestVersion is the newest distributable base-file version for the
	// class; clients holding older versions should refresh.
	LatestVersion int
	// Payload is the delta for KindDelta, nil for KindFull (the caller
	// already holds Doc).
	Payload []byte
	// Gzipped reports whether Payload is gzip-compressed.
	Gzipped bool
	// Format is the wire format of Payload for KindDelta.
	Format Format
	// Reason says why the response is a delta or a full; see Reason.
	Reason Reason
	// BasicRebase reports that this request triggered a basic-rebase
	// because its delta came out too large (Reason is ReasonDeltaTooBig).
	BasicRebase bool
	// ChainLen is the number of segments in a FormatVdeltaChain payload
	// (edge deltas plus the tip delta); 0 for every other format.
	ChainLen int
	// Trace is the request's pipeline span summary, non-nil only when the
	// engine's tracer is enabled. The delta-server folds it into its
	// structured request log.
	Trace *obs.Summary
}

// WireSize returns the number of payload bytes this response puts on the
// client-facing network: the delta size, or the full document size.
func (r Response) WireSize(docLen int) int {
	if r.Kind == KindDelta {
		return len(r.Payload)
	}
	return docLen
}

// ErrNoDocument is returned by Process for requests without a document.
var ErrNoDocument = errors.New("core: request has no document snapshot")

// baseVersion is one distributable base-file version. The bytes are
// immutable once installed, so readers may hold a reference across lock
// boundaries; the vdelta codec index is built lazily — at most once, via
// once — by the first vdelta encode against this version, outside any
// class lock.
type baseVersion struct {
	bytes []byte
	once  sync.Once
	index *vdelta.Index

	// cs owns the version for byte accounting; nil in versions created by
	// tests that bypass installBase.
	cs *classState
	// indexBytes is the accounted size of the lazily built index, and
	// released marks the version dropped from its class. The index build
	// runs outside all class locks, so it can race a concurrent release;
	// the Swap(0) protocol below guarantees exactly one side subtracts the
	// index bytes from the ledger.
	indexBytes atomic.Int64
	released   atomic.Bool

	// hints holds, for up to maxHints URLs, an immutable copy of the last
	// raw delta encoded for each against this version, charged to the delta
	// ledger. setHint stores nothing once released is set and release drops
	// the hints under hintMu, so exactly one side returns each hint's bytes.
	hintMu sync.Mutex
	hints  [maxHints]struct {
		url   string
		delta []byte // nil: a free slot
	}
}

// maxHints bounds one version's hint bytes however many URLs its class
// serves; DESIGN.md §9 derives it from measured URLs per class.
const maxHints = 32

// hintSlot probes from an FNV-1a hash of url for url's slot or else the
// first free one; a full table yields the hashed slot, to be displaced. It
// depends on the request sequence only, so a replayed trace keeps the same
// hints, hence emits the same deltas, on every run. Callers hold hintMu.
func (bv *baseVersion) hintSlot(url string) int {
	h := uint32(2166136261)
	for i := 0; i < len(url); i++ {
		h = (h ^ uint32(url[i])) * 16777619
	}
	for i := range maxHints {
		if s := (int(h%maxHints) + i) % maxHints; bv.hints[s].url == url || bv.hints[s].delta == nil {
			return s
		}
	}
	return int(h % maxHints)
}

// hintFor returns the replay hint recorded for url, or nil.
func (bv *baseVersion) hintFor(url string) []byte {
	bv.hintMu.Lock()
	defer bv.hintMu.Unlock()
	if h := bv.hints[bv.hintSlot(url)]; h.url == url {
		return h.delta
	}
	return nil
}

// setHint records delta, which the version takes ownership of, as url's
// replay hint, refunding whatever hint its slot held before.
func (bv *baseVersion) setHint(url string, delta []byte) {
	bv.hintMu.Lock()
	defer bv.hintMu.Unlock()
	if bv.cs == nil || bv.released.Load() {
		return
	}
	h := &bv.hints[bv.hintSlot(url)]
	bv.cs.addDelta(int64(len(delta) - len(h.delta)))
	h.url, h.delta = url, delta
}

// dropHints forgets every replay hint and returns the bytes it gave back to
// the ledger.
func (bv *baseVersion) dropHints() (freed int64) {
	bv.hintMu.Lock()
	defer bv.hintMu.Unlock()
	for _, h := range bv.hints {
		freed += int64(len(h.delta))
	}
	clear(bv.hints[:])
	bv.cs.addDelta(-freed)
	return freed
}

// vdeltaIndex returns the version's codec index, building it on first use.
// Safe to call concurrently and without holding any class lock.
func (bv *baseVersion) vdeltaIndex(coder *vdelta.Coder) *vdelta.Index {
	bv.once.Do(func() {
		bv.index = coder.NewIndex(bv.bytes)
		if bv.cs == nil {
			return
		}
		sz := bv.index.SizeBytes()
		bv.cs.addIndex(sz)
		bv.indexBytes.Store(sz)
		if bv.released.Load() {
			// The version was released while we were building: whoever wins
			// the Swap undoes the accounting; the index itself is garbage
			// the moment the running encode finishes with it.
			if f := bv.indexBytes.Swap(0); f != 0 {
				bv.cs.addIndex(-f)
			}
		}
	})
	return bv.index
}

// release returns the version's accounted bytes to the ledger when it is
// dropped from its class. Callers hold cs.mu; safe against a concurrent
// index build (see indexBytes). Returns the bytes it subtracted.
func (bv *baseVersion) release() int64 {
	if bv.cs == nil {
		return 0
	}
	freed := int64(len(bv.bytes))
	bv.cs.addBase(-freed)
	bv.released.Store(true)
	if f := bv.indexBytes.Swap(0); f != 0 {
		bv.cs.addIndex(-f)
		freed += f
	}
	return freed + bv.dropHints()
}

// classState is the engine's per-class serving state.
//
// Lock hierarchy (see DESIGN.md, "Concurrency model"): shard map lock →
// classState.mu → selector/class locks. Shard locks guard only the class
// table itself and are never held while taking cs.mu. The expensive vdelta
// encode runs with no class lock held at all, against an immutable
// baseVersion snapshot.
type classState struct {
	mu sync.RWMutex

	class    *classify.Class // nil in classless modes
	id       string
	selector *basefile.Selector

	// Distributable (anonymized, for class-based mode) base-file versions.
	// bases[v] exists for the GraphDepth most recent versions; edges[v] is
	// the version graph's cached delta from retained version v to the next
	// retained version (see graph.go for the invariants).
	bases       map[int]*baseVersion
	edges       map[int]*versionEdge
	distVersion int       // newest distributable version; 0 = none yet
	installedAt time.Time // when distVersion was installed (zero = never)

	// anonProc anonymizes the selector's base at selectorVersion
	// anonSource; nil when idle or anonymization is disabled.
	anonProc   *anonymize.Process
	anonSource int

	// deltas memoizes the class's encoded deltas (nil when disabled). It
	// has its own lock, taken after cs.mu when both are needed; its
	// payloads are immutable and shared with responses by aliasing. Every
	// install, prune, evict, and anonymization-epoch bump purges it.
	deltas *deltacache.Cache

	// evicted marks the class degraded by budget maintenance: no resident
	// base, serving full responses until traffic re-warms it. evictions and
	// rewarms count the transitions. All three are guarded by mu.
	evicted   bool
	evictions int64
	rewarms   int64

	// spill is the engine's disk tier (nil when disabled). spilled is the
	// warm path's one-atomic-load hint that a spill record may exist for
	// this class; faultMu serializes fault-in so a flash crowd on a
	// spilled class triggers exactly one disk read + decode (singleflight
	// per class — waiters block on the leader's mutex and re-check the
	// flag). faultIns counts successful installs, guarded by mu.
	spill    *store.Tier
	spilled  atomic.Bool
	faultMu  sync.Mutex
	faultIns int64

	// res is the class's share of the engine accountant's ledger: every
	// byte delta is applied to both, so res.Total() is the class's resident
	// footprint and the global ledger stays the exact sum over classes.
	res  store.Accountant
	acct *store.Accountant // the engine's global ledger

	// The class's request cells, written only by settle, once per routed
	// request: served counts responses by Reason, shipped the bytes each
	// put on the wire, bytesIn the documents' bytes. Every request, response
	// and byte count the engine reports — Stats, GraphStats, ClassStats, the
	// cbde_class_*, cbde_responses_total and cbde_bytes_saved_total series —
	// is a sum over them, exact because a class never leaves the store.
	served  [numReasons]atomic.Int64
	shipped [numReasons]atomic.Int64
	bytesIn atomic.Int64
}

var _ store.Entry = (*classState)(nil)

// addBase, addIndex and addDelta (memoized payloads, replay hints) apply a
// byte delta to the class's ledger and the engine's global one. Candidate
// bytes flow through the selector's OnStoredBytes callback instead.
func (cs *classState) addBase(d int64) {
	cs.res.AddBase(d)
	cs.acct.AddBase(d)
}
func (cs *classState) addIndex(d int64) {
	cs.res.AddIndex(d)
	cs.acct.AddIndex(d)
}
func (cs *classState) addDelta(d int64) {
	cs.res.AddDelta(d)
	cs.acct.AddDelta(d)
}

// ResidentBytes implements store.Entry.
func (cs *classState) ResidentBytes() int64 { return cs.res.Total() }

// purgeDeltas invalidates the class's memoized deltas, returning their
// bytes to the ledger through the cache's accounting callback. Safe with
// or without cs.mu held (the cache has its own lock, ordered after cs.mu).
func (cs *classState) purgeDeltas() {
	if cs.deltas != nil {
		cs.deltas.Purge()
	}
}

// Prune implements store.Entry: drop every installed base version but the
// newest distributable one, its replay hints, and the selector's sampled
// candidates. The class keeps serving deltas against its newest base;
// clients holding pruned versions fall back to full responses.
func (cs *classState) Prune() int64 {
	before := cs.res.Total()
	cs.mu.Lock()
	for v, bv := range cs.bases {
		if v != cs.distVersion {
			delete(cs.bases, v)
			bv.release()
		} else {
			bv.dropHints()
		}
	}
	// With only the current version left there is nothing for an edge to
	// connect; the graph regrows from the next installs.
	cs.dropEdgesLocked()
	cs.selector.DropSamples()
	// Memoized deltas are derived data: the cheapest payload to shed and
	// to regrow, and some were encoded against the versions just dropped.
	cs.purgeDeltas()
	cs.mu.Unlock()
	if freed := before - cs.res.Total(); freed > 0 {
		return freed
	}
	return 0
}

// Evict implements store.Entry: release every resident byte — installed
// base versions, the selector's working base and samples — and mark the
// class degraded. The entry itself stays in the store so its identity,
// counters, and version numbering survive; it announces LatestVersion 0,
// serves full responses, and re-warms from the next requests. The selector
// version counter is preserved, so a re-warmed class never reuses a
// version number for different bytes.
func (cs *classState) Evict() int64 {
	if cs.spill != nil {
		// faultMu orders this class's tier traffic: strip-and-append pairs
		// land in the order the strips happened, so the tier's
		// latest-record-wins index always holds the newest capture, and a
		// fault-in never overlaps an eviction of the same class. Without it
		// a class stripped, re-warmed by a slipped-in request and stripped
		// again could leave the older record on top (faultIn additionally
		// refuses such a record by its version).
		cs.faultMu.Lock()
		defer cs.faultMu.Unlock()
	}
	before := cs.res.Total()
	cs.mu.Lock()
	// With the disk tier enabled, eviction is a demotion: capture the
	// class's spillable state before the payload is dropped. The captured
	// byte slices are immutable (every mutation path replaces, never
	// edits, them), so the record stays valid for the append below even
	// after the class is stripped.
	var rec *store.ClassRecord
	if cs.spill != nil {
		rec = cs.spillRecordLocked()
	}
	for v, bv := range cs.bases {
		delete(cs.bases, v)
		bv.release()
	}
	cs.dropEdgesLocked()
	cs.distVersion = 0
	cs.installedAt = time.Time{}
	cs.anonProc = nil
	cs.anonSource = 0
	if !cs.evicted {
		cs.evicted = true
		cs.evictions++
	}
	cs.selector.DropStored()
	cs.purgeDeltas()
	cs.mu.Unlock()
	if rec != nil {
		// Append outside cs.mu: the tier has its own lock and does disk
		// I/O. On failure the class simply degrades like a plain eviction
		// (the tier counts the error); the spilled flag flips only once
		// the record is durably indexed.
		if err := cs.spill.Append(*rec); err == nil {
			cs.spilled.Store(true)
		}
	}
	if freed := before - cs.res.Total(); freed > 0 {
		return freed
	}
	return 0
}

// hotCounters are the engine's event counters, resolved once at
// construction so the request path never takes the registry's name-lookup
// lock. Requests, responses and their bytes are not events here: settle
// counts them in the classes' request cells.
type hotCounters struct {
	classesCreated *metrics.Counter
	classifyProbes *metrics.Counter
	rebaseGroup    *metrics.Counter
	rebaseBasic    *metrics.Counter
	anonStarted    *metrics.Counter
	anonCompleted  *metrics.Counter
	basesInstalled *metrics.Counter
	rewarms        *metrics.Counter
	memoHits       *metrics.Counter // memoized delta served without encoding
	memoMisses     *metrics.Counter // cache misses (the request led the encode)
	memoCoalesced  *metrics.Counter // requests that waited on a leader's encode
	encodeRuns     *metrics.Counter // delta encodes actually executed
	encodeBytes    *metrics.Counter // target bytes through the vdelta encoder
	encodeReplayed *metrics.Counter // of those, bytes covered by hint replay
	faultIns       *metrics.Counter // spilled classes faulted in from disk
}

// Engine implements class-based delta-encoding. Create one with NewEngine;
// it is safe for concurrent use: requests to different classes proceed in
// parallel, and requests to the same class serialize only for bookkeeping,
// not for the delta encode itself.
type Engine struct {
	cfg      Config
	coder    *vdelta.Coder
	classify *classify.Manager

	// estimator is the light forward-only delta-size predictor that picks
	// between a direct encode and a composed chain for lagging clients.
	// Safe for concurrent use; its per-call state is pooled.
	estimator *vdelta.Estimator

	// cstore owns the class table (internal/store); with Config.MemBudget
	// it prunes and evicts classes when resident bytes exceed the budget.
	// acct is its byte ledger.
	cstore *store.Table
	acct   *store.Accountant

	// spill is the disk tier (Config.SpillDir); nil when disabled. The
	// warm path's only interaction with it is one nil check plus one
	// atomic flag load per request.
	spill *store.Tier

	// encBufs recycles the per-request delta scratch buffer (*encodeBuf).
	// Together with the coder's own pooled index state and gzipx's pooled
	// codec state, a steady-state delta response allocates only the payload
	// it returns. Response.Payload never aliases a pooled buffer: it is
	// either a fresh gzip output or a fresh copy of the scratch.
	encBufs sync.Pool

	// anonEpoch is the engine-wide anonymization epoch. Bumping it (see
	// BumpAnonEpoch) invalidates every memoized delta: cached payloads
	// embed anonymized base content, so a policy change must not let them
	// outlive it. docSeed keys the per-request document fingerprint used in
	// memo-cache keys.
	anonEpoch atomic.Uint64
	docSeed   maphash.Seed

	reg *metrics.Registry
	ctr hotCounters

	// tracer issues pipeline span traces (internal/obs); stageHist and
	// procHist are the pre-resolved histograms finished traces feed, so a
	// traced request never takes the registry's name-lookup lock.
	tracer    *obs.Tracer
	stageHist [obs.NumStages]*metrics.Histogram
	procHist  *metrics.Histogram
	chainHist *metrics.Histogram // segments per composed-chain response
}

// memoEntries caps memoized deltas per class.
const memoEntries = 256

// encodeBuf is the pooled per-request encode scratch. The uncompressed
// delta is built in buf and either gzipped into the response payload or
// copied out; buf itself always returns to the pool.
type encodeBuf struct {
	buf []byte
}

func (e *Engine) getEncodeBuf() *encodeBuf {
	if v := e.encBufs.Get(); v != nil {
		return v.(*encodeBuf)
	}
	return &encodeBuf{}
}

// NewEngine returns an Engine configured by cfg.
func NewEngine(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:       cfg,
		coder:     vdelta.NewCoder(cfg.Codec...),
		estimator: vdelta.NewEstimator(),
		reg:       metrics.NewRegistry(),
	}
	e.cstore = store.NewTable(cfg.MemBudget, cfg.Now)
	e.acct = e.cstore.Accountant()
	if cfg.SpillDir != "" {
		tier, err := store.OpenTier(store.TierConfig{Dir: cfg.SpillDir, MaxBytes: cfg.DiskBudget})
		if err != nil {
			return nil, err
		}
		e.spill = tier
	}
	e.ctr = hotCounters{
		classesCreated: e.reg.Counter("classes.created"),
		classifyProbes: e.reg.Counter("classify.probes"),
		rebaseGroup:    e.reg.Counter("rebase.group"),
		rebaseBasic:    e.reg.Counter("rebase.basic"),
		anonStarted:    e.reg.Counter("anon.started"),
		anonCompleted:  e.reg.Counter("anon.completed"),
		basesInstalled: e.reg.Counter("bases.installed"),
		rewarms:        e.reg.Counter("store.rewarms"),
		memoHits:       e.reg.Counter("memo.hits"),
		memoMisses:     e.reg.Counter("memo.misses"),
		memoCoalesced:  e.reg.Counter("memo.coalesced"),
		encodeRuns:     e.reg.Counter("encode.runs"),
		encodeBytes:    e.reg.Counter("encode.target_bytes"),
		encodeReplayed: e.reg.Counter("encode.replayed_bytes"),
		faultIns:       e.reg.Counter("store.faultins"),
	}
	e.docSeed = maphash.MakeSeed()
	if cfg.Mode == ModeClassBased {
		e.classify = classify.NewManager(cfg.Classify)
		// Recovered spill keys embed grouping-dependent sequence numbers;
		// import the grouping record the last Checkpoint left in the tier
		// so the same URLs and users classify back to the same class IDs.
		if e.spill != nil {
			e.loadGrouping()
		}
	}

	// latencyBuckets spans the pipeline's realistic range: stages run tens
	// of microseconds to single-digit milliseconds (the paper's 6-8 ms
	// delta-generation budget sits mid-range), with headroom for contended
	// or pathological requests.
	latencyBuckets := []float64{
		0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5,
	}
	stageFam := e.reg.HistogramFamily("cbde_stage_duration_seconds",
		"Pipeline stage latency per traced request.", []string{"stage"}, latencyBuckets...)
	for _, st := range obs.Stages() {
		// Pre-create every stage child so the series exist from boot, even
		// before tracing is switched on.
		e.stageHist[st] = stageFam.With(st.String())
	}
	e.procHist = e.reg.Histogram("cbde_process_duration_seconds", latencyBuckets...)
	// Chain length is segments per composed response: the client's lag in
	// versions plus the tip delta. Buckets track the plausible graph depths.
	e.chainHist = e.reg.Histogram("cbde_graph_chain_length", 1, 2, 3, 4, 6, 8, 12, 16)
	e.reg.RegisterCollector(e.collect)

	e.tracer = obs.New(nil)
	e.tracer.SetEnabled(cfg.Tracing)
	return e, nil
}

// Metrics exposes the engine's metrics registry.
func (e *Engine) Metrics() *metrics.Registry { return e.reg }

// SetTracing switches pipeline span tracing on or off at runtime.
func (e *Engine) SetTracing(enabled bool) { e.tracer.SetEnabled(enabled) }

// TracingEnabled reports whether pipeline span tracing is on.
func (e *Engine) TracingEnabled() bool { return e.tracer.Enabled() }

// newClassState builds a classState wired to the engine's store ledger.
// Only the store's GetOrCreate calls it, so it runs exactly once per class
// key.
func (e *Engine) newClassState(key string, class *classify.Class) *classState {
	cs := &classState{
		id:    key,
		class: class,
		acct:  e.acct,
		spill: e.spill,
		bases: make(map[int]*baseVersion),
		edges: make(map[int]*versionEdge),
	}
	// The selector reports every resident-byte change of its working base
	// and sample stores; the callback runs under the selector's lock and
	// touches only atomics.
	selCfg := e.cfg.Selector
	selCfg.OnStoredBytes = func(d int) {
		cs.res.AddCand(int64(d))
		e.acct.AddCand(int64(d))
	}
	// Async sample admissions install candidate bytes after the sampling
	// request's Maintain has returned, so each admission schedules its own
	// budget pass once the selector lock is released.
	selCfg.AfterAsyncAdmit = func() { e.cstore.Maintain() }
	cs.selector = basefile.NewSelector(selCfg)
	// A class created after a restart may have a record waiting in the
	// recovered spill index; flag it so its first request faults it in.
	// This is the slow (creation) path: one tier map lookup per class.
	if e.spill != nil && e.spill.Contains(key) {
		cs.spilled.Store(true)
	}
	if !e.cfg.DeltaCacheOff {
		// Retained payload bytes flow into the same dual ledger as base and
		// candidate bytes, so the budget governor sees and reclaims them.
		cs.deltas = deltacache.New(memoEntries, cs.addDelta)
	}
	return cs
}

// state returns (creating if needed) the classState for key. The fast path
// is one store lookup and no allocations; the create closure is only built
// on the miss path.
func (e *Engine) state(key string, class *classify.Class) *classState {
	if ent, ok := e.cstore.Get(key); ok {
		return ent.(*classState)
	}
	ent, _ := e.cstore.GetOrCreate(key, func() store.Entry {
		return e.newClassState(key, class)
	})
	return ent.(*classState)
}

// lookup returns the classState for key, if it exists.
func (e *Engine) lookup(key string) (*classState, bool) {
	ent, ok := e.cstore.Get(key)
	if !ok {
		return nil, false
	}
	return ent.(*classState), true
}

// states snapshots every classState in the store.
func (e *Engine) states() []*classState {
	out := make([]*classState, 0, e.cstore.Len())
	e.cstore.ForEach(func(_ string, ent store.Entry) bool {
		out = append(out, ent.(*classState))
		return true
	})
	return out
}

// Process runs one request through route → observe → snapshot → decide →
// encode → settle (DESIGN.md §8). Observe and snapshot are one short
// mutation phase under the class write lock; decide is a pure function of
// the snapshot returning the response's Reason; the encode runs unlocked
// and can only demote a delta plan to a full; settle counts the request
// in its class's cells. Concurrent requests to the same class
// therefore overlap on the expensive part — the 6-8 ms/delta encode that
// bounds the capacity experiment of Section VI-C.
func (e *Engine) Process(req Request) (Response, error) {
	if req.Doc == nil {
		return Response{}, ErrNoDocument
	}
	if req.Format == 0 {
		req.Format = FormatVdelta
	}
	now := e.cfg.Now()
	// tr is nil when tracing is disabled; every tr method below is then a
	// no-op, so the untraced hot path pays one atomic load and no clock
	// reads or allocations.
	tr := e.tracer.StartCtx(req.TraceCtx)

	t0 := tr.Now()
	cs, err := e.route(req)
	if err != nil {
		tr.Discard()
		return Response{}, err
	}
	tr.Record(obs.StageRoute, t0, int64(len(req.Doc)))
	// Disk-tier fault-in: a spilled class is re-installed from its blob
	// before the mutation phase, so this very request is served as a
	// delta instead of a full response. The warm path pays one nil check
	// and one atomic load here; everything else lives behind the flag.
	if e.spill != nil && cs.spilled.Load() {
		t0 = tr.Now()
		if n := e.faultIn(cs, now); n > 0 {
			tr.Record(obs.StageFaultIn, t0, n)
		}
	}

	// Observe: feed the document to the selector (Section IV) and drive the
	// anonymization pipeline (Section V); then snapshot what decide and the
	// encode need.
	t0 = tr.Now()
	cs.mu.Lock()
	ev := cs.selector.ObserveTagged(req.Doc, req.UserID, now)
	if ev.GroupRebase {
		e.ctr.rebaseGroup.Inc()
	}
	tr.Record(obs.StageSelect, t0, 0)
	t0 = tr.Now()
	e.advanceAnonymization(cs, req, now)
	if !e.cfg.DisableAnonymization {
		tr.Record(obs.StageAnon, t0, 0)
	}
	t0 = tr.Now()
	snap := cs.snapshotLocked(req)
	cs.mu.Unlock()
	tr.Record(obs.StageSelect, t0, 0)

	why := decide(snap, len(req.Doc), e.cfg.MaxDeltaRatio, e.estimateChain(snap, req.Doc))
	resp := Response{Kind: KindFull, LatestVersion: snap.distVersion, Reason: why}
	if why.delta() {
		resp = e.encode(cs, snap, req, why, now, tr)
	}
	resp.ClassID = cs.id

	// Budget maintenance runs with no class locks held, after this
	// request's bytes are resident. At most one sweep runs at a time
	// (contenders skip; the sweeper re-checks the budget after releasing
	// the lock), so mid-flight resident bytes overshoot the budget by at
	// most the working size the in-flight requests admitted during the
	// sweep. Async sample admissions land after this call but schedule
	// their own pass (AfterAsyncAdmit), so once the last Maintain — from
	// any trigger — returns, the store is at or under budget.
	t0 = tr.Now()
	if freed := e.cstore.Maintain(); freed > 0 {
		tr.Record(obs.StageEvict, t0, freed)
	}

	e.settle(cs, req, resp, now)
	if sum := tr.Finish(); sum != nil {
		e.observeTrace(sum)
		resp.Trace = sum
	}
	return resp, nil
}

// observeTrace folds one finished trace into the per-stage latency
// histograms. Stages with no recorded cost are skipped, so e.g. the encode
// series reflects only requests that actually attempted a delta.
func (e *Engine) observeTrace(sum *obs.Summary) {
	// Requests that carried a distributed trace ID leave it as an exemplar
	// on the bucket their duration landed in, so an exposition p99 spike
	// links straight to a retrievable flight-recorder trace.
	if id := sum.Ctx.ID; !id.IsZero() {
		e.procHist.ObserveExemplar(sum.Total.Seconds(), id.Hi, id.Lo, e.cfg.Now().Unix())
	} else {
		e.procHist.Observe(sum.Total.Seconds())
	}
	for _, st := range obs.Stages() {
		if sp := sum.Stages[st]; sp.Dur > 0 || sp.Bytes > 0 {
			e.stageHist[st].Observe(sp.Dur.Seconds())
		}
	}
}

// route finds or creates the classState for the request.
func (e *Engine) route(req Request) (*classState, error) {
	switch e.cfg.Mode {
	case ModeClassless:
		return e.state("url:"+req.URL, nil), nil
	case ModeClasslessPerUser:
		return e.state("url:"+req.URL+"|user:"+req.UserID, nil), nil
	default:
		parts, err := e.cfg.Rules.Partition(req.URL)
		if err != nil {
			return nil, fmt.Errorf("core: partition request URL: %w", err)
		}
		res := e.classify.Group(req.URL, parts, req.Doc)
		if res.Created {
			e.ctr.classesCreated.Inc()
		}
		e.ctr.classifyProbes.Add(int64(res.Probes))
		return e.state(res.Class.ID, res.Class), nil
	}
}

// OwnerKey returns the cluster-ownership key for a request URL: the piece
// of the class identity computable from the URL alone (server-part "/"
// hint-part), so every tier node derives the same owner without running the
// grouping mechanism. All classes grouped from one (server, hint) pair share
// one key and therefore one owner. In the classless modes — where there is
// no class to co-locate — the URL itself is the key. URLs that fail to
// partition fall back to the raw URL; they fail identically on every node,
// so placement stays consistent.
func (e *Engine) OwnerKey(url string) string {
	if e.cfg.Mode != ModeClassBased {
		return url
	}
	parts, err := e.cfg.Rules.Partition(url)
	if err != nil {
		return url
	}
	return parts.Server + "/" + parts.Hint
}

// OwnerKeyForClass maps a class ID ("server/hint#seq") back to its
// cluster-ownership key by trimming the grouping sequence suffix, so
// status tooling can attribute stored classes to tier nodes.
func OwnerKeyForClass(classID string) string {
	if i := strings.LastIndexByte(classID, '#'); i >= 0 {
		return classID[:i]
	}
	return classID
}

// ObserveForward records the duration of one intra-tier forward hop in the
// pipeline stage histogram (obs.StageForward). The hop is measured by the
// delta-server rather than inside Process because the forward replaces the
// local pipeline entirely.
func (e *Engine) ObserveForward(d time.Duration) {
	e.stageHist[obs.StageForward].Observe(d.Seconds())
}

// advanceAnonymization drives the class's anonymization pipeline: it starts
// a process when the selector has a newer base than the one being (or
// already) distributed, feeds the current request into a running process,
// and installs the anonymized base when the process completes. Callers hold
// cs.mu.
func (e *Engine) advanceAnonymization(cs *classState, req Request, now time.Time) {
	base, version := cs.selector.Base()
	if version == 0 || base == nil {
		// base == nil with version > 0 is the evicted state: the selector
		// keeps its version counter but holds no document until the next
		// Observe re-warms it.
		return
	}

	if e.cfg.DisableAnonymization {
		// Distribute selector bases directly.
		if version > cs.distVersion {
			e.installBase(cs, version, base, now)
		}
		return
	}

	// (Re)start the process when the selector moved past what we are
	// anonymizing or distributing.
	if version > cs.anonSource && version > cs.distVersion {
		cs.anonProc = anonymize.NewProcess(base, cs.selector.BaseTag(), e.cfg.Anon)
		cs.anonSource = version
		e.ctr.anonStarted.Inc()
	}
	if cs.anonProc == nil {
		return
	}
	cs.anonProc.Compare(req.Doc, req.UserID)
	if !cs.anonProc.Done() {
		return
	}
	anon, err := cs.anonProc.Result()
	if err != nil {
		// Unreachable: Done() implies Result succeeds. Drop the process to
		// avoid wedging the class.
		cs.anonProc = nil
		return
	}
	cs.anonProc = nil
	e.ctr.anonCompleted.Inc()
	e.installBase(cs, cs.anonSource, anon, now)
}

// installBase records base as the class's distributable version v, links
// it into the version graph with an edge from the outgoing version, and
// prunes versions beyond the graph depth. Callers hold cs.mu; base must
// not be mutated after the call (it becomes the immutable payload of a
// baseVersion).
func (e *Engine) installBase(cs *classState, v int, base []byte, now time.Time) {
	// Build the graph edge before anything is pruned: the outgoing
	// distributable version is the edge's source, and its bytes must still
	// be resident to encode against.
	e.buildEdgeLocked(cs, cs.distVersion, v, base)
	cs.bases[v] = &baseVersion{bytes: base, cs: cs}
	cs.addBase(int64(len(base)))
	cs.distVersion = v
	cs.installedAt = now
	if cs.evicted {
		// A degraded class just got a distributable base again.
		cs.evicted = false
		cs.rewarms++
		e.ctr.rewarms.Inc()
	}
	if cs.class != nil {
		cs.class.SetMatchBase(base)
	}
	// Keep the GraphDepth highest version numbers, dropping each pruned
	// version's outgoing edge with it (edges into a pruned version always
	// come from a lower — also pruned — version, so no dangling edges
	// remain). Counting versions rather than measuring numeric distance
	// matters under per-node version striding
	// (basefile.Config.VersionStride), where consecutive versions differ by
	// the cluster size.
	if len(cs.bases) > e.cfg.GraphDepth {
		versions := make([]int, 0, len(cs.bases))
		for old := range cs.bases {
			versions = append(versions, old)
		}
		sort.Ints(versions)
		for _, old := range versions[:len(versions)-e.cfg.GraphDepth] {
			obv := cs.bases[old]
			delete(cs.bases, old)
			obv.release()
			cs.dropEdgeLocked(old)
		}
	}
	// A version install is an invalidation barrier for the memo cache:
	// deltas against dropped versions are gone with their bases, and a
	// rebase (or anonymization completion) means the class's serving state
	// moved — cached outcomes must not outlive it.
	cs.purgeDeltas()
	e.ctr.basesInstalled.Inc()
}

// BaseFile returns a copy of the distributable base-file bytes for a class
// and version. ok is false when the class or version is unknown (e.g.
// pruned).
func (e *Engine) BaseFile(classID string, version int) ([]byte, bool) {
	base, ok := e.BaseFileView(classID, version)
	if !ok {
		return nil, false
	}
	out := make([]byte, len(base))
	copy(out, base)
	return out, true
}

// BaseFileView is BaseFile without the defensive copy: the returned bytes
// are an immutable installed base version and must not be modified. The
// delta-server's base-distribution endpoint uses this so that serving a
// base-file touches only two read locks and allocates nothing.
func (e *Engine) BaseFileView(classID string, version int) ([]byte, bool) {
	cs, exists := e.lookup(classID)
	if !exists {
		return nil, false
	}
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	bv, ok := cs.bases[version]
	if !ok {
		return nil, false
	}
	return bv.bytes, true
}

// LatestBase returns a copy of the newest distributable base-file for a
// class and its version. ok is false when the class has no distributable
// base yet.
func (e *Engine) LatestBase(classID string) ([]byte, int, bool) {
	cs, exists := e.lookup(classID)
	if !exists {
		return nil, 0, false
	}
	cs.mu.RLock()
	if cs.distVersion == 0 {
		cs.mu.RUnlock()
		return nil, 0, false
	}
	bv := cs.bases[cs.distVersion]
	version := cs.distVersion
	cs.mu.RUnlock()
	out := make([]byte, len(bv.bytes))
	copy(out, bv.bytes)
	return out, version, true
}

// Stats is a snapshot of the engine's behaviour, the raw material for the
// paper's tables. Requests, responses and bytes sum the classes' request
// cells.
type Stats struct {
	Mode           Mode
	Requests       int64
	FullResponses  int64
	DeltaResponses int64

	BytesDirect int64 // what a server without delta-encoding would send
	BytesDelta  int64 // delta payload bytes actually sent
	BytesFull   int64 // full-document bytes actually sent

	Classes      int   // classStates (classes, or documents in classless modes)
	GroupRebases int64 // group-rebases across all classes
	BasicRebases int64 // basic-rebases across all classes

	AnonStarted   int64 // anonymization processes started
	AnonCompleted int64 // anonymization processes completed

	// StorageBytes is the server-side storage footprint: distributable
	// base versions plus the selectors' stored candidate documents. This
	// is the scalability headline of the paper.
	StorageBytes int64
}

// Savings returns the bandwidth savings fraction (1 - sent/direct) over the
// client-facing link, counting delta and full responses.
func (s Stats) Savings() float64 {
	if s.BytesDirect == 0 {
		return 0
	}
	sent := s.BytesDelta + s.BytesFull
	return 1 - float64(sent)/float64(s.BytesDirect)
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	states := e.states()

	var storage int64
	var sum cellSums
	for _, cs := range states {
		sum.add(cs)
		cs.mu.RLock()
		for _, bv := range cs.bases {
			storage += int64(len(bv.bytes))
		}
		cs.mu.RUnlock()
		sel := cs.selector.Stats()
		storage += int64(sel.StoredBytes)
	}

	return Stats{
		Mode:           e.cfg.Mode,
		Requests:       sum.served.total(),
		FullResponses:  sum.served.fulls(),
		DeltaResponses: sum.served.deltas(),
		BytesDirect:    sum.bytesIn,
		BytesDelta:     sum.shipped.deltas(),
		BytesFull:      sum.shipped.fulls(),
		Classes:        len(states),
		GroupRebases:   e.ctr.rebaseGroup.Value(),
		BasicRebases:   e.ctr.rebaseBasic.Value(),
		AnonStarted:    e.ctr.anonStarted.Value(),
		AnonCompleted:  e.ctr.anonCompleted.Value(),
		StorageBytes:   storage,
	}
}

// Decode reconstructs a document from a base-file and a vdelta response
// payload, undoing gzip when the response says so. It is what a
// delta-capable client runs; the engine exposes it so callers need not know
// the codec config. For VCDIFF responses use DecodeAs.
func (e *Engine) Decode(base, payload []byte, gzipped bool) ([]byte, error) {
	return e.DecodeAs(base, payload, gzipped, FormatVdelta)
}

// DecodeAs is Decode for an explicit wire format. For FormatVdeltaChain
// the payload is a framed segment sequence (deltahttp.AppendChain): each
// segment's delta is applied to the previous segment's output, starting
// from base, and the last application yields the document.
func (e *Engine) DecodeAs(base, payload []byte, gzipped bool, format Format) ([]byte, error) {
	delta := payload
	if gzipped {
		d, err := gzipx.Decompress(payload)
		if err != nil {
			return nil, fmt.Errorf("core: decompress delta: %w", err)
		}
		delta = d
	}
	if format == FormatVdeltaChain {
		segs, err := deltahttp.ParseChain(delta)
		if err != nil {
			return nil, fmt.Errorf("core: parse delta chain: %w", err)
		}
		cur := base
		for i, s := range segs {
			d := s.Payload
			if s.Gzipped {
				d, err = gzipx.Decompress(d)
				if err != nil {
					return nil, fmt.Errorf("core: decompress chain segment %d: %w", i, err)
				}
			}
			cur, err = e.coder.Decode(cur, d)
			if err != nil {
				return nil, fmt.Errorf("core: apply chain segment %d: %w", i, err)
			}
		}
		return cur, nil
	}
	var doc []byte
	var err error
	if format == FormatVCDIFF {
		doc, err = vcdiff.Decode(base, delta)
	} else {
		doc, err = e.coder.Decode(base, delta)
	}
	if err != nil {
		return nil, fmt.Errorf("core: apply delta: %w", err)
	}
	return doc, nil
}

// StoreStats snapshots the storage-governance layer: the byte ledger by
// category, the budget, resident versus total classes, and the recent
// prune/evict log. The delta-server's /_cbde/store endpoint serves it.
func (e *Engine) StoreStats() store.Stats { return e.cstore.Stats() }

// BumpAnonEpoch advances the engine-wide anonymization epoch and purges
// every class's memoized deltas, version-graph edges and replay hints. Call
// it when the anonymization policy (or any input to it) changes out-of-band:
// cached payloads and edge deltas embed anonymized base content and must not
// survive the change. Delta purging is eager here and also lazy at lookup
// (the epoch is checked on every cache acquire), so a cache that misses the
// eager sweep — e.g. a class created concurrently — still never serves a
// pre-bump payload; edges and hints are swept eagerly under the class lock.
func (e *Engine) BumpAnonEpoch() {
	e.anonEpoch.Add(1)
	for _, cs := range e.states() {
		cs.mu.Lock()
		cs.dropEdgesLocked()
		for _, bv := range cs.bases {
			bv.dropHints()
		}
		cs.mu.Unlock()
		cs.purgeDeltas()
	}
}

// DeltaCacheStats aggregates the per-class delta memo caches for
// reporting: the delta-server's /_cbde/store endpoint serves it alongside
// the store ledger.
type DeltaCacheStats struct {
	// Enabled reports whether memoization is on (Config.DeltaCacheOff).
	Enabled bool `json:"enabled"`
	// Hits, Misses, and Coalesced classify every cache consult: served
	// from cache, led an encode, or waited on another request's encode.
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Coalesced int64 `json:"coalesced"`
	// Entries and Bytes are the currently retained deltas and their
	// payload bytes, summed over classes.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Invalidations counts entries dropped by purges and cap evictions.
	Invalidations int64 `json:"invalidations"`
	// HintBytes are replay hints (ledger delta kind = Bytes + HintBytes);
	// ReplayedBytes of the EncodedBytes vdelta-encoded came from a hint.
	HintBytes     int64 `json:"hintBytes"`
	EncodedBytes  int64 `json:"encodedBytes"`
	ReplayedBytes int64 `json:"replayedBytes"`
}

// DeltaCacheStats snapshots the delta memo caches across all classes.
func (e *Engine) DeltaCacheStats() DeltaCacheStats {
	st := DeltaCacheStats{
		Enabled:       !e.cfg.DeltaCacheOff,
		Hits:          e.ctr.memoHits.Value(),
		Misses:        e.ctr.memoMisses.Value(),
		Coalesced:     e.ctr.memoCoalesced.Value(),
		EncodedBytes:  e.ctr.encodeBytes.Value(),
		ReplayedBytes: e.ctr.encodeReplayed.Value(),
	}
	for _, cs := range e.states() {
		if c := cs.deltas; c != nil {
			cst := c.Stats()
			st.Entries += cst.Entries
			st.Bytes += cst.Bytes
			st.Invalidations += int64(cst.Invalidations)
		}
		cs.mu.RLock()
		for _, bv := range cs.bases {
			bv.hintMu.Lock()
			for _, h := range bv.hints {
				st.HintBytes += int64(len(h.delta))
			}
			bv.hintMu.Unlock()
		}
		cs.mu.RUnlock()
	}
	return st
}

// Quiesce blocks until every class's outstanding asynchronous sample
// admissions — and the budget maintenance each one schedules — have
// completed. With synchronous sampling it is a no-op. Call it before
// asserting on resident bytes or snapshotting state.
func (e *Engine) Quiesce() {
	e.cstore.ForEach(func(_ string, ent store.Entry) bool {
		ent.(*classState).selector.Quiesce()
		return true
	})
}

// GroupingStats exposes the classifier's statistics in class-based mode.
// ok is false in classless modes.
func (e *Engine) GroupingStats() (classify.Stats, bool) {
	if e.classify == nil {
		return classify.Stats{}, false
	}
	return e.classify.Stats(), true
}
