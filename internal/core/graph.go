// Per-class version graph: retained base versions plus the delta edges
// between adjacent ones, so a client on *any* retained version is served a
// delta — directly against the version it holds, or as a composed chain of
// cached edge deltas walked up to the current version — instead of falling
// off the delta path to a full response the moment it lags one rebase.
//
// Graph invariants (see DESIGN.md §16):
//
//   - cs.edges[w] is the edge out of retained version w; it exists only
//     while both endpoint versions are resident in cs.bases, and its To is
//     the next retained version above w (edges are built at install time,
//     between the outgoing and incoming distributable versions).
//   - Edges only connect versions in this node's residue class
//     (basefile.Config.SameResidue): after a failover a class can briefly
//     hold foreign-residue versions, and an edge across residues would
//     chain deltas over bytes this node never minted.
//   - Edge payloads are wire-ready (gzipped when that won) and immutable;
//     responses alias them, exactly like baseVersion bytes and memo-cache
//     payloads.
//   - Every byte is accounted under the store ledger's "edge" kind, so
//     -mem-budget governs the graph and prune/evict/epoch-bump drain it.
package core

import (
	"hash/maphash"
	"time"

	"cbde/internal/deltacache"
	"cbde/internal/deltahttp"
	"cbde/internal/gzipx"
	"cbde/internal/obs"
)

// versionEdge is one cached delta between adjacent retained base versions:
// applying payload to bases[from] yields bases[to] byte-for-byte.
type versionEdge struct {
	from    int
	to      int
	payload []byte // wire-ready delta (gzipped when gzipped is set)
	gzipped bool
	rawLen  int // uncompressed delta length, the chain-cost estimate term
}

// addEdge applies an edge byte delta to the class's ledger and the
// engine's global one, mirroring addBase/addIndex.
func (cs *classState) addEdge(d int64) {
	cs.res.AddEdge(d)
	cs.acct.AddEdge(d)
}

// dropEdgeLocked removes the edge out of version v, if any, returning its
// bytes to the ledger. Callers hold cs.mu.
func (cs *classState) dropEdgeLocked(v int) {
	if ge, ok := cs.edges[v]; ok {
		delete(cs.edges, v)
		cs.addEdge(-int64(len(ge.payload)))
	}
}

// dropEdgesLocked removes every edge. Callers hold cs.mu.
func (cs *classState) dropEdgesLocked() {
	for v := range cs.edges {
		cs.dropEdgeLocked(v)
	}
}

// buildEdgeLocked creates the graph edge from the outgoing distributable
// version prev to the incoming version v, encoding prev's bytes into
// base. Callers hold cs.mu (installs are rare; the encode is one rebase-
// sized vdelta run). The edge is skipped when the graph is effectively
// off, prev is not resident, or the versions span residue classes.
func (e *Engine) buildEdgeLocked(cs *classState, prev, v int, base []byte) {
	if e.cfg.GraphDepth < 2 || prev <= 0 || prev >= v {
		return
	}
	prevBV, ok := cs.bases[prev]
	if !ok {
		return
	}
	if !e.cfg.Selector.SameResidue(prev, v) {
		return
	}
	delta, err := e.coder.EncodeIndexedInto(prevBV.vdeltaIndex(e.coder), base, nil)
	if err != nil {
		return
	}
	ge := &versionEdge{from: prev, to: v, payload: delta, rawLen: len(delta)}
	if !e.cfg.GzipOff {
		if c := gzipx.AppendDelta(nil, delta); len(c) > 0 {
			ge.payload, ge.gzipped = c, true
		}
	}
	cs.dropEdgeLocked(prev) // stale edge from a failed install path, if any
	cs.edges[prev] = ge
	cs.addEdge(int64(len(ge.payload)))
}

// respondChain serves a lagging client the composed chain: the cached
// edges from its held version up to the current one, plus a freshly
// encoded (and memoized) tip delta from the current base to the document.
// The whole framed chain is memoized under the explicit (From, To) edge
// key, so every client at the same depth shares one assembly.
func (e *Engine) respondChain(cs *classState, snap encodeSnapshot, req Request, now time.Time, tr *obs.Trace) Response {
	if cs.deltas == nil {
		return e.encodeChain(cs, snap, req, now, tr)
	}
	t0 := tr.Now()
	key := deltacache.Key{
		From:    snap.clientVersion,
		To:      snap.distVersion,
		DocHash: maphash.Bytes(e.docSeed, req.Doc),
		DocLen:  len(req.Doc),
		Format:  uint8(FormatVdeltaChain),
	}
	res, fl, st := cs.deltas.Acquire(key, e.anonEpoch.Load())
	switch st {
	case deltacache.StatusHit:
		e.ctr.memoHits.Inc()
	case deltacache.StatusCoalesced:
		res = fl.Wait()
		e.ctr.memoCoalesced.Inc()
	default: // StatusLead: this request assembles the chain for the key.
		e.ctr.memoMisses.Inc()
		tr.Record(obs.StageMemo, t0, 0)
		resp := e.encodeChain(cs, snap, req, now, tr)
		out := deltacache.Result{Outcome: deltacache.OutcomeFull}
		switch {
		case resp.Kind == KindDelta:
			out = deltacache.Result{Outcome: deltacache.OutcomeDelta, Payload: resp.Payload}
		case resp.BasicRebase:
			out.Outcome = deltacache.OutcomeTooBig
		}
		cs.deltas.Commit(fl, out)
		return resp
	}

	tr.Record(obs.StageMemo, t0, int64(len(res.Payload)))
	switch res.Outcome {
	case deltacache.OutcomeDelta:
		return Response{
			Kind:          KindDelta,
			BaseVersion:   snap.clientVersion,
			LatestVersion: e.latestVersion(cs),
			Payload:       res.Payload,
			Format:        FormatVdeltaChain,
			// Installs purge the memo cache, so within one cache lifetime the
			// (From, To) walk is fixed and the snapshot's chain length holds.
			ChainLen: len(snap.chain) + 1,
		}
	case deltacache.OutcomeTooBig:
		return e.basicRebase(cs, snap, req, now)
	default:
		return Response{Kind: KindFull, LatestVersion: e.latestVersion(cs)}
	}
}

// encodeChain builds the framed chain payload: the snapshot's cached edge
// deltas in order, then a tip delta encoded from the current base to the
// document. The tip encode reuses encodeResponse (pooled scratch, ratio
// check, gzip-if-smaller); an oversized tip triggers the usual basic-
// rebase, and a chain that fails to undercut the document itself falls
// back to a full response — composition must never cost more than giving
// up.
func (e *Engine) encodeChain(cs *classState, snap encodeSnapshot, req Request, now time.Time, tr *obs.Trace) Response {
	tipSnap := encodeSnapshot{
		distVersion:   snap.distVersion,
		clientVersion: snap.distVersion,
		base:          snap.tipBase,
	}
	tip := e.encodeResponse(cs, tipSnap, req, FormatVdelta, now, tr)
	if tip.Kind != KindDelta {
		return tip
	}
	segs := make([]deltahttp.ChainSegment, 0, len(snap.chain)+1)
	for _, ge := range snap.chain {
		segs = append(segs, deltahttp.ChainSegment{Payload: ge.payload, Gzipped: ge.gzipped})
	}
	segs = append(segs, deltahttp.ChainSegment{Payload: tip.Payload, Gzipped: tip.Gzipped})
	framed := deltahttp.AppendChain(nil, segs)
	if len(framed) >= len(req.Doc) {
		return Response{Kind: KindFull, LatestVersion: tip.LatestVersion}
	}
	return Response{
		Kind:          KindDelta,
		BaseVersion:   snap.clientVersion,
		LatestVersion: tip.LatestVersion,
		Payload:       framed,
		Format:        FormatVdeltaChain,
		ChainLen:      len(segs),
	}
}

// GraphStats is the engine-wide version-graph snapshot the delta-server's
// /_cbde/store endpoint serves.
type GraphStats struct {
	// Depth is the configured retention bound G (Config.GraphDepth).
	Depth int `json:"depth"`
	// Edges and EdgeBytes are the resident edge deltas across all classes.
	Edges     int   `json:"edges"`
	EdgeBytes int64 `json:"edgeBytes"`
	// Direct counts single-delta responses, Composed counts chained-delta
	// responses, and FallbackFull counts full responses served to clients
	// whose advertised version had aged out of the graph.
	Direct       int64 `json:"direct"`
	Composed     int64 `json:"composed"`
	FallbackFull int64 `json:"fallbackFull"`
}

// GraphStats snapshots the version graph across all classes.
func (e *Engine) GraphStats() GraphStats {
	st := GraphStats{
		Depth:        e.cfg.GraphDepth,
		Direct:       e.ctr.graphDirect.Value(),
		Composed:     e.ctr.graphComposed.Value(),
		FallbackFull: e.ctr.graphFallback.Value(),
	}
	for _, cs := range e.states() {
		cs.mu.RLock()
		st.Edges += len(cs.edges)
		cs.mu.RUnlock()
	}
	st.EdgeBytes = e.acct.Usage().EdgeBytes
	return st
}
