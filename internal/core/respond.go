// The response half of Process — snapshot → decide → encode → settle — and
// the Reason each response carries (DESIGN.md §8 has the table).
package core

import (
	"fmt"
	"hash/maphash"
	"time"

	"cbde/internal/anonymize"
	"cbde/internal/deltacache"
	"cbde/internal/deltahttp"
	"cbde/internal/gzipx"
	"cbde/internal/obs"
	"cbde/internal/vcdiff"
	"cbde/internal/vdelta"
)

// Reason says why a response is a delta or a full. Every response carries
// exactly one and settle counts it in exactly one per-class cell, so the
// reasons partition the requests served; the full ones break the paper's
// P_error down by cause.
type Reason uint8

const (
	ReasonDirect Reason = iota + 1 // delta against the newest retained held version
	ReasonChain                    // a lagging client's chain of graph edges plus a tip delta
	// ReasonClassEvicted: budget eviction stripped the class; it serves
	// fulls until a re-warmed base is distributable again.
	ReasonClassEvicted
	ReasonAnonPending    // no base distributed yet: the first is being anonymized (Section V)
	ReasonNoBaseHeld     // the client advertised no base-file of the class
	ReasonVersionAgedOut // every held version left the graph (GraphDepth, a prune)
	// ReasonDeltaTooBig: the delta exceeded MaxDeltaRatio; the request
	// triggered a basic rebase or found another's already landed (Section IV).
	ReasonDeltaTooBig
	ReasonChainNotSmaller // the framed chain was no smaller than the document
	ReasonEncodeError     // the delta coder failed

	numReasons
)

var reasonNames = [numReasons]string{
	"", "direct", "chain", "class_evicted", "anon_pending", "no_base_held",
	"version_aged_out", "delta_too_big", "chain_not_smaller", "encode_error",
}

// String implements fmt.Stringer. The names are the reason label values of
// cbde_responses_total.
func (r Reason) String() string {
	if r > 0 && r < numReasons {
		return reasonNames[r]
	}
	return fmt.Sprintf("Reason(%d)", uint8(r))
}

// delta reports whether r is a delta response's reason.
func (r Reason) delta() bool { return r == ReasonDirect || r == ReasonChain }

// encodeSnapshot captures, under the class lock, everything decide and the
// encode need, so the encode can run unlocked. All referenced byte payloads
// (base bytes, edge deltas) are immutable, so the snapshot stays valid even
// if the graph is concurrently pruned or rebased.
type encodeSnapshot struct {
	distVersion   int          // distributable version at snapshot time; 0 = none
	evicted       bool         // budget maintenance evicted the class
	held          bool         // the client advertised some version of the class
	clientVersion int          // newest held version the server still stores
	base          *baseVersion // clientVersion's bytes; nil when none is retained
	// chain, when non-nil, is the version graph's edge walk from
	// clientVersion up to distVersion, and tipBase is the current version's
	// base — the composed-chain alternative to encoding directly against
	// base. nil when the client is current, the walk is broken, or the
	// client asked for VCDIFF (chains are vdelta framing).
	chain   []*versionEdge
	tipBase *baseVersion
}

// snapshotLocked picks the base-file version to delta against — the newest
// version the client holds that the server still stores — and, for a
// lagging client, walks the version graph to capture the composed-chain
// alternative. Callers hold cs.mu.
func (cs *classState) snapshotLocked(req Request) encodeSnapshot {
	snap := encodeSnapshot{distVersion: cs.distVersion, evicted: cs.evicted}
	if cs.distVersion == 0 {
		return snap
	}
	req.forEachHeldVersion(cs.id, func(v int) {
		snap.held = true
		if bv, ok := cs.bases[v]; ok && v > snap.clientVersion {
			snap.clientVersion, snap.base = v, bv
		}
	})
	if snap.base == nil || snap.clientVersion == cs.distVersion || req.Format == FormatVCDIFF {
		return snap
	}
	// Walk the edges from the client's version toward the current one. A
	// gap (edge or endpoint missing — residue striding, a partial fault-in)
	// leaves chain nil and the client gets a direct encode.
	var chain []*versionEdge
	for w := snap.clientVersion; w != cs.distVersion; {
		ge := cs.edges[w]
		if ge == nil {
			return snap
		}
		if _, ok := cs.bases[ge.to]; !ok {
			return snap
		}
		chain = append(chain, ge)
		w = ge.to
		if len(chain) > len(cs.edges) {
			return snap // unreachable cycle guard
		}
	}
	if tip, ok := cs.bases[cs.distVersion]; ok {
		snap.chain, snap.tipBase = chain, tip
	}
	return snap
}

// chainEstimate is what decide weighs for a lagging client: the light
// estimator's size of a direct delta, and of the composed chain (cached
// edges plus a tip delta). Zero unless the snapshot carries a chain.
type chainEstimate struct{ direct, composed int }

func (e *Engine) estimateChain(s encodeSnapshot, doc []byte) chainEstimate {
	if len(s.chain) == 0 {
		return chainEstimate{}
	}
	est := chainEstimate{
		direct:   e.estimator.Estimate(s.base.bytes, doc),
		composed: e.estimator.Estimate(s.tipBase.bytes, doc),
	}
	for _, ge := range s.chain {
		est.composed += ge.rawLen
	}
	return est
}

// decide is the engine's one delta-or-full decision, a pure function of
// the snapshot, the document length, the rebase ratio and, for a lagging
// client, the chain estimate. It returns the plan ReasonDirect or
// ReasonChain, or the reason the response is full.
//
// A lagging client with an intact edge walk gets whichever of direct
// encode and composed chain the estimator predicts is smaller on the wire.
// Ties go to the chain: its edges are already encoded, so it skips the
// full-document direct encode. An oversized *direct* estimate is not
// content drift — the tip still matches the document — so the chain serves
// even if it predicts larger, rather than letting one stale client trigger
// a spurious class-wide rebase.
func decide(s encodeSnapshot, docLen int, maxRatio float64, est chainEstimate) Reason {
	switch {
	case s.evicted:
		return ReasonClassEvicted
	case s.distVersion == 0:
		return ReasonAnonPending
	case s.base == nil && s.held:
		return ReasonVersionAgedOut
	case s.base == nil:
		return ReasonNoBaseHeld
	case len(s.chain) > 0 && (est.composed <= est.direct || float64(est.direct) > maxRatio*float64(docLen)):
		return ReasonChain
	}
	return ReasonDirect
}

// encode carries out a delta plan with no class lock held. With the delta
// cache enabled (the default) it first consults the class's memo cache: a
// committed result is served by aliasing its immutable payload, a
// concurrent encode of the same key is joined (singleflight — the caller
// blocks until the leader commits), and only a cold key runs encodePlan,
// whose payload and reason are committed for every sharer. Sharers thus
// report the leader's reason; a leader's delta_too_big sends each through
// basicRebase, whose revalidation lets only one rebase land.
//
// The memo key fingerprints the document content, so two requests share a
// result only when they hold the same base version and carry byte-equal
// documents in the same wire format. A chain is keyed by its explicit
// (From, To) edge, so every client at the same depth shares one assembly;
// a direct encode has To 0. The anonymization epoch guards the whole cache
// (see deltacache.Cache.Acquire).
func (e *Engine) encode(cs *classState, snap encodeSnapshot, req Request, plan Reason, now time.Time, tr *obs.Trace) Response {
	if cs.deltas == nil {
		return e.encodePlan(cs, snap, req, plan, now, tr)
	}
	t0 := tr.Now()
	key := deltacache.Key{
		From:    snap.clientVersion,
		DocHash: maphash.Bytes(e.docSeed, req.Doc),
		DocLen:  len(req.Doc),
		Format:  uint8(req.Format),
	}
	if plan == ReasonChain {
		key.To, key.Format = snap.distVersion, uint8(FormatVdeltaChain)
	}
	res, fl, st := cs.deltas.Acquire(key, e.anonEpoch.Load())
	switch st {
	case deltacache.StatusHit:
		e.ctr.memoHits.Inc()
	case deltacache.StatusCoalesced:
		res = fl.Wait()
		e.ctr.memoCoalesced.Inc()
	default: // StatusLead: this request owns the encode for the key.
		e.ctr.memoMisses.Inc()
		tr.Record(obs.StageMemo, t0, 0)
		resp := e.encodePlan(cs, snap, req, plan, now, tr)
		// A delta's payload is a fresh allocation (never pooled scratch; see
		// encodeDelta), so retaining and sharing it by alias is safe. A full
		// has no payload, so the cache shares it without retaining it.
		cs.deltas.Commit(fl, deltacache.Result{Reason: uint8(resp.Reason), Payload: resp.Payload, Gzipped: resp.Gzipped})
		return resp
	}
	tr.Record(obs.StageMemo, t0, int64(len(res.Payload)))
	switch why := Reason(res.Reason); {
	case why.delta():
		return e.deltaResponse(cs, snap, req, why, res.Payload, res.Gzipped)
	case why == ReasonDeltaTooBig:
		return e.basicRebase(cs, snap, req, now)
	default:
		return Response{Kind: KindFull, LatestVersion: e.latestVersion(cs), Reason: why}
	}
}

// encodePlan encodes a delta plan and can only demote it: to
// ReasonDeltaTooBig (through basicRebase), ReasonChainNotSmaller, or
// ReasonEncodeError. A chain plan encodes just the tip delta, from the
// current base to the document, and frames it after the snapshot's cached
// edges; a chain that fails to undercut the document itself is dropped —
// composition must never cost more than giving up.
func (e *Engine) encodePlan(cs *classState, snap encodeSnapshot, req Request, plan Reason, now time.Time, tr *obs.Trace) Response {
	base, format := snap.base, req.Format
	if plan == ReasonChain {
		base, format = snap.tipBase, FormatVdelta
	}
	payload, gzipped, demoted := e.encodeDelta(base, req, format, tr)
	switch {
	case demoted == ReasonDeltaTooBig:
		return e.basicRebase(cs, snap, req, now)
	case demoted != 0:
		return Response{Kind: KindFull, LatestVersion: e.latestVersion(cs), Reason: demoted}
	case plan == ReasonChain:
		segs := make([]deltahttp.ChainSegment, 0, len(snap.chain)+1)
		for _, ge := range snap.chain {
			segs = append(segs, deltahttp.ChainSegment{Payload: ge.payload, Gzipped: ge.gzipped})
		}
		segs = append(segs, deltahttp.ChainSegment{Payload: payload, Gzipped: gzipped})
		// Chain framing carries per-segment gzip flags; the frame itself is
		// never gzipped.
		payload, gzipped = deltahttp.AppendChain(nil, segs), false
		if len(payload) >= len(req.Doc) {
			return Response{Kind: KindFull, LatestVersion: e.latestVersion(cs), Reason: ReasonChainNotSmaller}
		}
	}
	return e.deltaResponse(cs, snap, req, plan, payload, gzipped)
}

// encodeDelta encodes req.Doc against base in format and gzips the result
// when that makes it smaller. It runs with no class lock held: the base
// bytes and codec index are immutable, so concurrent requests to one class
// overlap on the encode. demoted is zero when the delta stands, else
// ReasonEncodeError or ReasonDeltaTooBig.
//
// The vdelta path encodes into a pooled scratch buffer, replaying what
// still verifies of the last delta encoded for this URL against this
// version, and gzips from it, so a steady-state delta response allocates
// only the returned payload. The payload never aliases pooled memory — it
// is a fresh gzip output or a fresh copy — which is what lets encode retain
// it in the memo cache.
func (e *Engine) encodeDelta(base *baseVersion, req Request, format Format, tr *obs.Trace) (payload []byte, gzipped bool, demoted Reason) {
	e.ctr.encodeRuns.Inc()
	var delta []byte
	var err error
	var scratch *encodeBuf // non-nil when delta lives in pooled memory
	t0 := tr.Now()
	if format == FormatVCDIFF {
		delta, err = vcdiff.Encode(base.bytes, req.Doc)
	} else {
		scratch = e.getEncodeBuf()
		defer e.encBufs.Put(scratch)
		var replayed int
		delta, replayed, err = e.coder.EncodeHintedInto(base.vdeltaIndex(e.coder), req.Doc, base.hintFor(req.URL), scratch.buf)
		scratch.buf = delta[:0] // retain grown capacity whatever path follows
		e.ctr.encodeBytes.Add(int64(len(req.Doc)))
		e.ctr.encodeReplayed.Add(int64(replayed))
	}
	tr.Record(obs.StageEncode, t0, int64(len(delta)))
	switch {
	case err != nil:
		return nil, false, ReasonEncodeError
	case float64(len(delta)) > e.cfg.MaxDeltaRatio*float64(len(req.Doc)):
		return nil, false, ReasonDeltaTooBig
	}
	if scratch != nil {
		base.setHint(req.URL, append([]byte(nil), delta...))
	}

	t0 = tr.Now()
	payload = delta
	if c := gzipDelta(delta); len(c) > 0 {
		payload, gzipped = c, true
	}
	tr.Record(obs.StageGzip, t0, int64(len(payload)))
	if !gzipped && scratch != nil {
		// The uncompressed delta is pooled scratch; the payload escapes to
		// the caller, so it must be a fresh copy.
		payload = append([]byte(nil), delta...)
	}
	return payload, gzipped, 0
}

// gzipDelta returns delta's gzip member, each vdelta section coded as its
// own Huffman block (a VCDIFF delta is one block), or nothing when the
// member would not be shorter than delta.
func gzipDelta(delta []byte) []byte {
	s := vdelta.Sections(delta)
	return gzipx.AppendDelta(nil, s[:]...)
}

// deltaResponse is the response for a delta plan's payload. The class's
// distributable version is re-read under the lock (encode-then-revalidate)
// so clients learn about rebases that landed while the delta was encoded;
// the delta itself stays valid, being against bytes the client holds.
func (e *Engine) deltaResponse(cs *classState, snap encodeSnapshot, req Request, why Reason, payload []byte, gzipped bool) Response {
	resp := Response{
		Kind:          KindDelta,
		BaseVersion:   snap.clientVersion,
		LatestVersion: e.latestVersion(cs),
		Payload:       payload,
		Gzipped:       gzipped,
		Format:        req.Format,
		Reason:        why,
	}
	if why == ReasonChain {
		// Installs purge the memo cache, so within one cache lifetime the
		// (From, To) walk is fixed and the snapshot's chain length holds.
		resp.Format, resp.ChainLen = FormatVdeltaChain, len(snap.chain)+1
	}
	return resp
}

// latestVersion reads the class's distributable version under a read lock.
func (e *Engine) latestVersion(cs *classState) int {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	return cs.distVersion
}

// basicRebase handles an oversized delta: the base-file has drifted too far
// from the class, so the current document becomes the new base (Section
// IV). The paper flushes the stored samples; the new base becomes
// distributable after anonymization (class-based) or immediately
// (baselines). The oversized delta was computed outside the lock, so the
// class is first re-validated under the write lock: if another request
// already rebased past the snapshot, the evidence is stale and the request
// is served full without a second rebase. Either way the reason is
// ReasonDeltaTooBig; BasicRebase tells the two apart.
func (e *Engine) basicRebase(cs *classState, snap encodeSnapshot, req Request, now time.Time) Response {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	resp := Response{Kind: KindFull, Reason: ReasonDeltaTooBig}
	if cs.distVersion == snap.distVersion {
		v := cs.selector.BasicRebase(req.Doc, req.UserID, now)
		e.ctr.rebaseBasic.Inc()
		if e.cfg.DisableAnonymization {
			e.installBase(cs, v, append([]byte(nil), req.Doc...), now)
		} else {
			cs.anonProc = anonymize.NewProcess(req.Doc, req.UserID, e.cfg.Anon)
			cs.anonSource = v
			e.ctr.anonStarted.Inc()
		}
		resp.BasicRebase = true
	}
	resp.LatestVersion = cs.distVersion
	return resp
}

// settle is the only place a request is counted: one response in its
// reason's cell, the bytes it put on the wire in the same reason's shipped
// cell, and the document's bytes in bytesIn — all three in the request's
// class. A chain's length also feeds the chain histogram.
func (e *Engine) settle(cs *classState, req Request, resp Response, now time.Time) {
	cs.served[resp.Reason].Add(1)
	cs.shipped[resp.Reason].Add(int64(resp.WireSize(len(req.Doc))))
	cs.bytesIn.Add(int64(len(req.Doc)))
	if resp.Reason == ReasonChain {
		if id := req.TraceCtx.ID; !id.IsZero() {
			e.chainHist.ObserveExemplar(float64(resp.ChainLen), id.Hi, id.Lo, now.Unix())
		} else {
			e.chainHist.Observe(float64(resp.ChainLen))
		}
	}
}

// reasonCounts tallies responses, or their wire bytes, by Reason.
type reasonCounts [numReasons]int64

// total sums every reason; deltas and fulls sum the delta and the full ones.
func (c *reasonCounts) total() int64 {
	var n int64
	for _, v := range c {
		n += v
	}
	return n
}

func (c *reasonCounts) deltas() int64 { return c[ReasonDirect] + c[ReasonChain] }

func (c *reasonCounts) fulls() int64 { return c.total() - c.deltas() }

// cellSums sums classes' request cells.
type cellSums struct {
	served, shipped reasonCounts
	bytesIn         int64
}

// add adds the class's cells.
func (s *cellSums) add(cs *classState) {
	for r := range cs.served {
		s.served[r] += cs.served[r].Load()
		s.shipped[r] += cs.shipped[r].Load()
	}
	s.bytesIn += cs.bytesIn.Load()
}
