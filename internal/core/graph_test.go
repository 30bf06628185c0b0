package core

import (
	"bytes"
	"testing"

	"cbde/internal/basefile"
)

// docGen renders one content generation for graph tests: a shared
// incompressible template plus a per-generation section, so consecutive
// versions stay close (small edges) while every generation change still
// breaches a tight MaxDeltaRatio and forces a rebase.
func docGen(gen int) []byte {
	doc := append([]byte(nil), incompressible(42, 4000)...)
	return append(doc, incompressible(uint64(gen)+100, 600)...)
}

// graphEngine builds an engine where every content generation rebases and
// the class retains depth versions connected by edges.
func graphEngine(t *testing.T, depth int, cfg Config) *Engine {
	t.Helper()
	cfg.DisableAnonymization = true
	cfg.GraphDepth = depth
	cfg.MaxDeltaRatio = 0.02
	cfg.Selector = basefile.Config{SampleProb: 1, MaxSamples: 4}
	return newTestEngine(t, cfg)
}

// driveGenerations pushes gens content generations through one class with
// a client that keeps its base fresh, and returns the class ID and the
// latest distributable version.
func driveGenerations(t *testing.T, e *Engine, gens int) (string, int) {
	t.Helper()
	classID, have := "", 0
	for g := 1; g <= gens; g++ {
		// Two requests per generation: the first detects the oversized
		// delta (or cold class) and installs the generation's base, the
		// second confirms the class serves it.
		for r := 0; r < 2; r++ {
			resp, err := e.Process(Request{
				URL: "www.shop.com/graph/1", UserID: "u", Doc: docGen(g),
				HaveClassID: classID, HaveVersion: have,
			})
			if err != nil {
				t.Fatal(err)
			}
			classID = resp.ClassID
			if resp.LatestVersion > have {
				have = resp.LatestVersion
			}
		}
	}
	if have == 0 {
		t.Fatal("no distributable version after driving generations")
	}
	return classID, have
}

// TestGraphServesAnyRetainedVersion is the tentpole acceptance check: a
// client holding any retained version gets a byte-verified delta (direct
// or composed chain), and only an aged-out version falls back to full.
func TestGraphServesAnyRetainedVersion(t *testing.T) {
	const depth, gens = 4, 7
	e := graphEngine(t, depth, Config{})
	classID, latest := driveGenerations(t, e, gens)

	doc := docGen(gens) // current content, unchanged since the last install
	var retained []int
	for v := 1; v <= latest; v++ {
		if _, ok := e.BaseFile(classID, v); ok {
			retained = append(retained, v)
		}
	}
	if len(retained) < 2 || len(retained) > depth {
		t.Fatalf("retained versions = %v, want 2..%d of them", retained, depth)
	}

	sawChain := false
	for _, v := range retained {
		resp, err := e.Process(Request{
			URL: "www.shop.com/graph/1", UserID: "u", Doc: doc,
			HaveClassID: classID, HaveVersion: v,
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Kind != KindDelta {
			t.Fatalf("version %d: kind = %v, want delta for a retained version", v, resp.Kind)
		}
		base, _ := e.BaseFile(classID, v)
		got, err := e.DecodeAs(base, resp.Payload, resp.Gzipped, resp.Format)
		if err != nil {
			t.Fatalf("version %d: decode (%v): %v", v, resp.Format, err)
		}
		if !bytes.Equal(got, doc) {
			t.Fatalf("version %d: reconstruction mismatch (%v)", v, resp.Format)
		}
		if resp.Format == FormatVdeltaChain {
			sawChain = true
			if want := latest - v + 1; resp.ChainLen != want {
				t.Errorf("version %d: chain length = %d, want %d", v, resp.ChainLen, want)
			}
		}
	}
	if !sawChain {
		t.Error("no composed chain served across retained versions")
	}

	// A pruned version aged out of the graph: full response, counted as a
	// graph fallback.
	if _, ok := e.BaseFile(classID, 1); ok {
		t.Fatalf("version 1 still retained; want pruned at depth %d", depth)
	}
	resp, err := e.Process(Request{
		URL: "www.shop.com/graph/1", UserID: "u", Doc: doc,
		HaveClassID: classID, HaveVersion: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindFull {
		t.Fatalf("aged-out version: kind = %v, want full", resp.Kind)
	}

	gs := e.GraphStats()
	if gs.Depth != depth {
		t.Errorf("GraphStats.Depth = %d, want %d", gs.Depth, depth)
	}
	if gs.Composed == 0 || gs.Direct == 0 || gs.FallbackFull == 0 {
		t.Errorf("GraphStats = direct %d composed %d fallback %d, want all nonzero",
			gs.Direct, gs.Composed, gs.FallbackFull)
	}
	if gs.Edges == 0 || gs.EdgeBytes == 0 {
		t.Errorf("GraphStats edges = %d (%d bytes), want edges resident", gs.Edges, gs.EdgeBytes)
	}

	st, ok := e.ClassStats(classID)
	if !ok {
		t.Fatal("class stats missing")
	}
	if st.GraphVersions != len(retained) || st.GraphEdges == 0 {
		t.Errorf("class graph = %dv/%de, want %dv and edges", st.GraphVersions, st.GraphEdges, len(retained))
	}
	if st.GraphComposed == 0 || st.GraphDirect == 0 || st.GraphFallback == 0 {
		t.Errorf("class graph serving = %d/%d/%d, want all nonzero",
			st.GraphDirect, st.GraphComposed, st.GraphFallback)
	}
}

// TestGraphComposedChainDeterministic pins the composed path itself: a
// snapshot with an intact edge walk must assemble a chain that decodes to
// the document, and a second identical request must share the memoized
// chain payload.
func TestGraphComposedChainDeterministic(t *testing.T) {
	e := graphEngine(t, 4, Config{})
	classID, latest := driveGenerations(t, e, 5)
	doc := docGen(5)

	cs, ok := e.lookup(classID)
	if !ok {
		t.Fatal("class state missing")
	}
	var oldest int
	cs.mu.RLock()
	for v := range cs.bases {
		if oldest == 0 || v < oldest {
			oldest = v
		}
	}
	cs.mu.RUnlock()
	if oldest == latest {
		t.Fatalf("only one retained version (v%d); cannot build a chain", latest)
	}

	req := Request{
		URL: "www.shop.com/graph/1", UserID: "u", Doc: doc,
		HaveClassID: classID, HaveVersion: oldest,
	}
	cs.mu.RLock()
	snap := cs.snapshotLocked(req)
	cs.mu.RUnlock()
	if len(snap.chain) == 0 {
		t.Fatalf("snapshot has no chain from v%d to v%d", oldest, latest)
	}

	now := e.cfg.Now()
	first := e.encode(cs, snap, req, ReasonChain, now, nil)
	if first.Kind != KindDelta || first.Format != FormatVdeltaChain {
		t.Fatalf("chain response = kind %v format %v, want chained delta", first.Kind, first.Format)
	}
	base, _ := e.BaseFile(classID, oldest)
	got, err := e.DecodeAs(base, first.Payload, first.Gzipped, first.Format)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, doc) {
		t.Fatal("composed chain did not reproduce the document")
	}
	if first.ChainLen != len(snap.chain)+1 {
		t.Errorf("chain length = %d, want %d edges + tip", first.ChainLen, len(snap.chain)+1)
	}

	second := e.encode(cs, snap, req, ReasonChain, now, nil)
	if second.Kind != KindDelta || !bytes.Equal(second.Payload, first.Payload) {
		t.Error("repeat chain request did not share the memoized payload")
	}
	if second.ChainLen != first.ChainLen {
		t.Errorf("memo-hit chain length = %d, want %d", second.ChainLen, first.ChainLen)
	}
}

// TestGraphDepthOneKeepsNoEdges: depth 1 is graph-off — one retained
// version, no edges, and a lagging client falls back to full.
func TestGraphDepthOneKeepsNoEdges(t *testing.T) {
	e := graphEngine(t, 1, Config{})
	classID, latest := driveGenerations(t, e, 4)

	st, ok := e.ClassStats(classID)
	if !ok {
		t.Fatal("class stats missing")
	}
	if st.GraphVersions != 1 || st.GraphEdges != 0 || st.GraphEdgeBytes != 0 {
		t.Fatalf("depth-1 graph = %dv/%de (%d bytes), want 1v/0e", st.GraphVersions, st.GraphEdges, st.GraphEdgeBytes)
	}
	resp, err := e.Process(Request{
		URL: "www.shop.com/graph/1", UserID: "u", Doc: docGen(4),
		HaveClassID: classID, HaveVersion: latest - 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindFull {
		t.Fatalf("depth-1 lagging client: kind = %v, want full", resp.Kind)
	}
	if gs := e.GraphStats(); gs.FallbackFull == 0 {
		t.Error("depth-1 fallback not counted")
	}
}

// TestGraphSpillRestoresEdges: eviction spills the version graph with the
// class; fault-in restores the edges and a lagging client is still served
// a byte-verified delta.
func TestGraphSpillRestoresEdges(t *testing.T) {
	e := graphEngine(t, 4, Config{SpillDir: t.TempDir()})
	defer e.Close()
	classID, latest := driveGenerations(t, e, 5)
	doc := docGen(5)

	before, ok := e.ClassStats(classID)
	if !ok || before.GraphEdges == 0 {
		t.Fatalf("want resident edges before eviction, got %+v ok=%v", before, ok)
	}
	var oldest int
	for v := 1; v <= latest; v++ {
		if _, ok := e.BaseFile(classID, v); ok {
			oldest = v
			break
		}
	}

	if _, ok := e.EvictClass(classID); !ok {
		t.Fatal("evict failed")
	}
	mid, _ := e.ClassStats(classID)
	if !mid.Spilled || mid.GraphEdges != 0 {
		t.Fatalf("after evict: spilled=%v edges=%d, want spilled with no resident edges", mid.Spilled, mid.GraphEdges)
	}

	resp, err := e.Process(Request{
		URL: "www.shop.com/graph/1", UserID: "u", Doc: doc,
		HaveClassID: classID, HaveVersion: oldest,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindDelta {
		t.Fatalf("post-fault-in lagging client: kind = %v, want delta", resp.Kind)
	}
	base, ok := e.BaseFile(classID, oldest)
	if !ok {
		t.Fatalf("version %d not restored by fault-in", oldest)
	}
	got, err := e.DecodeAs(base, resp.Payload, resp.Gzipped, resp.Format)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, doc) {
		t.Fatal("post-fault-in reconstruction mismatch")
	}
	after, _ := e.ClassStats(classID)
	if after.GraphEdges != before.GraphEdges {
		t.Errorf("edges after fault-in = %d, want %d restored", after.GraphEdges, before.GraphEdges)
	}
}

// TestGraphStridedResiduesGetNoCrossEdges: with cluster striding, versions
// from another node's residue class must never be chained over.
func TestGraphStridedResiduesGetNoCrossEdges(t *testing.T) {
	cfg := basefile.Config{VersionStride: 3, VersionOffset: 1}
	cases := []struct {
		a, b int
		want bool
	}{
		{1, 4, true},
		{4, 7, true},
		{1, 2, false},
		{2, 5, false},
		{0, 1, false},
	}
	for _, c := range cases {
		if got := cfg.SameResidue(c.a, c.b); got != c.want {
			t.Errorf("SameResidue(%d, %d) = %v, want %v", c.a, c.b, got, c.want)
		}
	}

	// End to end: a strided engine builds edges only between its own
	// versions (stride 2, offset 1 → versions 1, 3, 5, ...).
	e := newTestEngine(t, Config{
		DisableAnonymization: true,
		GraphDepth:           4,
		MaxDeltaRatio:        0.02,
		Selector: basefile.Config{
			SampleProb: 1, MaxSamples: 4,
			VersionStride: 2, VersionOffset: 1,
		},
	})
	classID, _ := driveGenerations(t, e, 4)
	cs, _ := e.lookup(classID)
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	for from, ge := range cs.edges {
		if !e.cfg.Selector.SameResidue(from, ge.to) {
			t.Errorf("edge %d->%d crosses residue classes", from, ge.to)
		}
	}
}
