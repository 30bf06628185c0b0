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
	if c := gzipDelta(delta); len(c) > 0 {
		ge.payload, ge.gzipped = c, true
	}
	cs.dropEdgeLocked(prev) // stale edge from a failed install path, if any
	cs.edges[prev] = ge
	cs.addEdge(int64(len(ge.payload)))
}

// GraphStats is the engine-wide version-graph snapshot the delta-server's
// /_cbde/store endpoint serves.
type GraphStats struct {
	// Depth is the configured retention bound G (Config.GraphDepth).
	Depth int `json:"depth"`
	// Edges and EdgeBytes are the resident edge deltas across all classes.
	Edges     int   `json:"edges"`
	EdgeBytes int64 `json:"edgeBytes"`
	// Direct, Composed and FallbackFull are the engine-wide sums of the
	// ReasonDirect, ReasonChain and ReasonVersionAgedOut cells.
	Direct       int64 `json:"direct"`
	Composed     int64 `json:"composed"`
	FallbackFull int64 `json:"fallbackFull"`
}

// GraphStats snapshots the version graph across all classes.
func (e *Engine) GraphStats() GraphStats {
	st := GraphStats{Depth: e.cfg.GraphDepth}
	var sum cellSums
	for _, cs := range e.states() {
		sum.add(cs)
		cs.mu.RLock()
		st.Edges += len(cs.edges)
		cs.mu.RUnlock()
	}
	st.Direct, st.Composed = sum.served[ReasonDirect], sum.served[ReasonChain]
	st.FallbackFull = sum.served[ReasonVersionAgedOut]
	st.EdgeBytes = e.acct.Usage().EdgeBytes
	return st
}
