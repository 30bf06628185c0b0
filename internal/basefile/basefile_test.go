package basefile

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"cbde/internal/vdelta"
)

// classDocs builds a family of similar documents: a shared template with
// per-document variations. Documents with lower "distance" share more bytes
// with the rest of the family and therefore make better base-files.
func classDocs(rng *rand.Rand, n, size int) [][]byte {
	template := make([]byte, size)
	for i := range template {
		template[i] = byte('a' + rng.IntN(26))
	}
	docs := make([][]byte, n)
	for i := range docs {
		doc := append([]byte{}, template...)
		// Vary a handful of regions per document.
		edits := 1 + rng.IntN(4)
		for e := 0; e < edits; e++ {
			pos := rng.IntN(size - 64)
			for j := 0; j < 32+rng.IntN(32); j++ {
				doc[pos+j] = byte('A' + rng.IntN(26))
			}
		}
		docs[i] = append(doc, []byte(fmt.Sprintf("<!-- doc %d -->", i))...)
	}
	return docs
}

// outlierDoc returns a document unrelated to the class.
func outlierDoc(rng *rand.Rand, size int) []byte {
	doc := make([]byte, size)
	for i := range doc {
		doc[i] = byte('0' + rng.IntN(10))
	}
	return doc
}

// averageDeltaSize replays docs through strategy, measuring the real delta
// between each document and the base-file in force when it arrives —
// exactly the Table III evaluation.
func averageDeltaSize(t *testing.T, s Strategy, docs [][]byte) float64 {
	t.Helper()
	coder := vdelta.NewCoder()
	now := time.Unix(0, 0)
	total, count := 0, 0
	for _, doc := range docs {
		base, version := s.Base()
		if version > 0 {
			delta, err := coder.Encode(base, doc)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			total += len(delta)
			count++
		}
		s.Observe(doc, now)
		now = now.Add(time.Second)
	}
	if count == 0 {
		return 0
	}
	return float64(total) / float64(count)
}

func TestSelectorFirstDocBecomesBase(t *testing.T) {
	s := NewSelector(Config{})
	doc := []byte("the very first response")
	ev := s.Observe(doc, time.Unix(0, 0))
	if !ev.Initialized {
		t.Error("first Observe should initialize the base")
	}
	base, version := s.Base()
	if version != 1 || !bytes.Equal(base, doc) {
		t.Errorf("Base() = %d bytes, v%d; want the first doc at v1", len(base), version)
	}
}

func TestSelectorBaseIsCopied(t *testing.T) {
	s := NewSelector(Config{})
	doc := []byte("mutable document")
	s.Observe(doc, time.Unix(0, 0))
	doc[0] = 'X'
	base, _ := s.Base()
	if base[0] == 'X' {
		t.Error("selector retained a reference to the caller's slice")
	}
}

func TestSelectorStoresAtMostK(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	docs := classDocs(rng, 60, 2000)
	for _, policy := range []EvictionPolicy{EvictWorst, EvictPeriodicRandom, EvictTwoSet} {
		t.Run(policy.String(), func(t *testing.T) {
			s := NewSelector(Config{SampleProb: 1, MaxSamples: 5, Eviction: policy})
			now := time.Unix(0, 0)
			for _, d := range docs {
				s.Observe(d, now)
				if got := s.Stats().Stored; got > 5 {
					t.Fatalf("stored %d candidates, want <= 5", got)
				}
				now = now.Add(time.Second)
			}
			st := s.Stats()
			if st.Stored != 5 {
				t.Errorf("stored = %d, want 5 after 60 sampled docs", st.Stored)
			}
			if st.Sampled != 60 {
				t.Errorf("sampled = %d, want 60 with p=1", st.Sampled)
			}
		})
	}
}

func TestSelectorSamplingProbability(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	docs := classDocs(rng, 500, 400)
	s := NewSelector(Config{SampleProb: 0.2, MaxSamples: 8, Seed: 7})
	now := time.Unix(0, 0)
	for _, d := range docs {
		s.Observe(d, now)
		now = now.Add(time.Second)
	}
	got := s.Stats().Sampled
	// 500 * 0.2 = 100 expected; allow generous slack.
	if got < 60 || got > 140 {
		t.Errorf("sampled %d of 500 with p=0.2, want ~100", got)
	}
}

func TestRebaseTimeout(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	docs := classDocs(rng, 40, 1500)
	s := NewSelector(Config{SampleProb: 1, MaxSamples: 6, RebaseTimeout: time.Hour})
	start := time.Unix(0, 0)

	// Feed an outlier first so a better candidate will certainly appear.
	s.Observe(outlierDoc(rng, 1500), start)
	rebases := 0
	for i, d := range docs {
		ev := s.Observe(d, start.Add(time.Duration(i+1)*time.Second))
		if ev.GroupRebase {
			rebases++
		}
	}
	// All observations happen within the hour following the first rebase;
	// at most one group-rebase can fire.
	if rebases > 1 {
		t.Errorf("%d group-rebases within one timeout window, want <= 1", rebases)
	}

	// After the timeout expires, a rebase may fire again.
	ev := s.Observe(docs[0], start.Add(2*time.Hour))
	_ = ev // may or may not rebase; the invariant is the count above
}

func TestBasicRebaseFlushesSamples(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 4))
	docs := classDocs(rng, 20, 1000)
	s := NewSelector(Config{SampleProb: 1, MaxSamples: 8})
	now := time.Unix(0, 0)
	for _, d := range docs {
		s.Observe(d, now)
		now = now.Add(time.Second)
	}
	if s.Stats().Stored == 0 {
		t.Fatal("expected stored candidates before basic-rebase")
	}
	_, vBefore := s.Base()
	newDoc := outlierDoc(rng, 1000)
	v := s.BasicRebase(newDoc, "", now)
	if v != vBefore+1 {
		t.Errorf("version after basic-rebase = %d, want %d", v, vBefore+1)
	}
	if got := s.Stats().Stored; got != 0 {
		t.Errorf("stored = %d after basic-rebase, want 0 (flushed)", got)
	}
	base, _ := s.Base()
	if !bytes.Equal(base, newDoc) {
		t.Error("basic-rebase did not install the supplied document")
	}
}

func TestRandomizedBeatsFirstResponseOnBadStart(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 5))
	family := classDocs(rng, 120, 4000)
	docs := append([][]byte{outlierDoc(rng, 4000)}, family...)

	fr := averageDeltaSize(t, NewFirstResponse(), append([][]byte{}, docs...))
	rnd := averageDeltaSize(t, NewSelector(Config{SampleProb: 0.2, MaxSamples: 8, Seed: 1}), append([][]byte{}, docs...))

	if rnd >= fr {
		t.Errorf("randomized avg delta %.0f should beat first-response %.0f when the first doc is an outlier", rnd, fr)
	}
}

func TestOnlineOptimalAtLeastAsGoodAsFirstResponse(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 6))
	docs := append([][]byte{outlierDoc(rng, 3000)}, classDocs(rng, 80, 3000)...)
	fr := averageDeltaSize(t, NewFirstResponse(), docs)
	opt := averageDeltaSize(t, NewOnlineOptimal(nil), docs)
	if opt > fr {
		t.Errorf("online-optimal %.0f worse than first-response %.0f", opt, fr)
	}
}

func TestOnlineOptimalStoresEverything(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	docs := classDocs(rng, 30, 500)
	o := NewOnlineOptimal(nil)
	now := time.Unix(0, 0)
	total := 0
	for _, d := range docs {
		o.Observe(d, now)
		total += len(d)
	}
	if got := o.StoredBytes(); got != total {
		t.Errorf("StoredBytes = %d, want %d — the exhaustive algorithm keeps everything", got, total)
	}
}

func TestOfflinePicksMedoid(t *testing.T) {
	// Three docs: two near-identical, one outlier. The medoid must be one
	// of the similar pair.
	rng := rand.New(rand.NewPCG(8, 8))
	family := classDocs(rng, 2, 2000)
	docs := [][]byte{outlierDoc(rng, 2000), family[0], family[1]}
	best := Offline(docs, nil)
	if best == 0 {
		t.Error("Offline chose the outlier as base-file")
	}
	if got := Offline(nil, nil); got != -1 {
		t.Errorf("Offline(nil) = %d, want -1", got)
	}
}

func TestFirstResponseNeverRebases(t *testing.T) {
	fr := NewFirstResponse()
	now := time.Unix(0, 0)
	fr.Observe([]byte("first"), now)
	for i := 0; i < 10; i++ {
		ev := fr.Observe([]byte(fmt.Sprintf("other %d", i)), now)
		if ev.GroupRebase || ev.Initialized {
			t.Fatal("first-response must never change its base")
		}
	}
	base, v := fr.Base()
	if v != 1 || string(base) != "first" {
		t.Errorf("Base() = %q v%d, want \"first\" v1", base, v)
	}
}

func TestPErrorBoundPaperExample(t *testing.T) {
	// R=1e5, p=1e-2 => N=1000; K=10 => P_error <= 8e-11 (Section IV).
	got := PErrorBound(1000, 10)
	if got > 8e-11 {
		t.Errorf("PErrorBound(1000, 10) = %g, paper says <= 8e-11", got)
	}
	if got < 1e-12 {
		t.Errorf("PErrorBound(1000, 10) = %g, implausibly small", got)
	}
}

func TestPErrorBoundMonotonicInK(t *testing.T) {
	prev := 1.0
	for k := 2; k <= 12; k++ {
		b := PErrorBound(1000, k)
		if b > prev {
			t.Errorf("bound not decreasing in K: K=%d bound=%g prev=%g", k, b, prev)
		}
		prev = b
	}
}

func TestPErrorBoundEdgeCases(t *testing.T) {
	if PErrorBound(5, 10) != 1 {
		t.Error("N <= K should return the trivial bound 1")
	}
	if PErrorBound(100, 1) != 1 {
		t.Error("K <= 1 should return the trivial bound 1")
	}
}

func TestPErrorAtEviction(t *testing.T) {
	// c = 1/ln(999) ~= 0.1448; c^9/9! ~= 7.6e-14.
	got := PErrorAtEviction(1000, 10)
	if got > 1e-12 || got < 1e-15 {
		t.Errorf("PErrorAtEviction(1000,10) = %g, want ~7.6e-14", got)
	}
}

func TestSimulatedErrorRespectsBound(t *testing.T) {
	// With small N and K the bound is loose but must still dominate the
	// simulated error rate.
	n, k := 50, 4
	rate := SimulateSelectionError(n, k, 2000, 99)
	bound := PErrorBound(n, k)
	if rate > bound {
		t.Errorf("simulated error %.4f exceeds analytic bound %.4f", rate, bound)
	}
}

func TestSimulateSelectionErrorDegenerate(t *testing.T) {
	if got := SimulateSelectionError(3, 5, 100, 1); got != 0 {
		t.Errorf("N<=K should return 0, got %v", got)
	}
	if got := SimulateSelectionError(10, 1, 100, 1); got != 0 {
		t.Errorf("K<2 should return 0, got %v", got)
	}
}

func TestSelectorConcurrent(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 10))
	docs := classDocs(rng, 64, 500)
	s := NewSelector(Config{SampleProb: 0.5, MaxSamples: 6})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			now := time.Unix(int64(w), 0)
			for i, d := range docs {
				s.Observe(d, now.Add(time.Duration(i)*time.Millisecond))
				if i%16 == 0 {
					s.Base()
					s.Stats()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := s.Stats().Stored; got > 6 {
		t.Errorf("stored %d > K after concurrent load", got)
	}
}

func TestEvictionPolicyString(t *testing.T) {
	tests := map[EvictionPolicy]string{
		EvictWorst:          "worst",
		EvictPeriodicRandom: "periodic-random",
		EvictTwoSet:         "two-set",
		EvictionPolicy(42):  "EvictionPolicy(42)",
	}
	for p, want := range tests {
		if got := p.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(p), got, want)
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.SampleProb != 0.2 || c.MaxSamples != 8 || c.Eviction != EvictWorst {
		t.Errorf("unexpected defaults: %+v", c)
	}
	// Invalid values fall back too.
	c = Config{SampleProb: 2.5, MaxSamples: -1, RandomEvictEvery: -1}.withDefaults()
	if c.SampleProb != 0.2 || c.MaxSamples != 8 || c.RandomEvictEvery != 4 {
		t.Errorf("invalid values not defaulted: %+v", c)
	}
}

// TestVersionStriding: with stride = cluster size and per-node offsets,
// every version a selector mints stays in its residue class, versions are
// strictly increasing, and no two offsets can ever mint the same version —
// the invariant that makes (class, version) globally unique across a
// delta-server tier.
func TestVersionStriding(t *testing.T) {
	const stride = 3
	now := time.Unix(0, 0)
	seen := make(map[int]int) // version -> offset that minted it
	for off := 0; off < stride; off++ {
		s := NewSelector(Config{
			SampleProb:    1,
			VersionStride: stride,
			VersionOffset: off,
		})
		prev := 0
		for i := 0; i < 20; i++ {
			// BasicRebase bumps unconditionally, exercising the counter.
			v := s.BasicRebase([]byte(fmt.Sprintf("doc-%d", i)), "", now)
			if v <= prev {
				t.Fatalf("offset %d: version %d not increasing past %d", off, v, prev)
			}
			if v%stride != off {
				t.Fatalf("offset %d minted version %d (≡ %d mod %d)", off, v, v%stride, stride)
			}
			if other, dup := seen[v]; dup {
				t.Fatalf("version %d minted by offsets %d and %d", v, other, off)
			}
			seen[v] = off
			prev = v
		}
	}
}

// TestVersionStridingDefaults: the zero config keeps plain increments, and
// Observe's bootstrap bump respects the stride too.
func TestVersionStridingDefaults(t *testing.T) {
	now := time.Unix(0, 0)
	s := NewSelector(Config{SampleProb: -1})
	s.Observe([]byte("doc"), now)
	if _, v := s.Base(); v != 1 {
		t.Fatalf("default stride first version = %d, want 1", v)
	}
	s = NewSelector(Config{SampleProb: -1, VersionStride: 4, VersionOffset: 2})
	s.Observe([]byte("doc"), now)
	if _, v := s.Base(); v != 2 {
		t.Fatalf("strided bootstrap version = %d, want 2", v)
	}
	// Restore past a foreign version — by a counter-only spill snapshot and
	// by a stale record's high-water mark: the next mint lands back in this
	// node's residue class, strictly above the restored counter.
	s.RestoreSpill(SpillState{Version: 7}, now)
	if _, v := s.Base(); v != 7 {
		t.Fatalf("counter-only restore left the counter at %d, want 7", v)
	}
	if v := s.BasicRebase([]byte("doc2"), "", now); v != 10 {
		t.Fatalf("post-restore version = %d, want 10", v)
	}
	s.RaiseVersion(15)
	if v := s.BasicRebase([]byte("doc3"), "", now); v != 18 {
		t.Fatalf("post-raise version = %d, want 18", v)
	}
}
