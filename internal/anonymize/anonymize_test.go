package anonymize

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"sync"
	"testing"
)

// cardFor derives a unique fake credit-card number per user.
func cardFor(user string) string {
	h := fnv.New64a()
	h.Write([]byte(user))
	v := h.Sum64()
	return fmt.Sprintf("4111-%04d-%04d-%04d", v%10000, (v/10000)%10000, (v/100000000)%10000)
}

// personalDoc builds a document with a shared template and a per-user
// private section (a fake credit card number).
func personalDoc(user string) []byte {
	return []byte("<html><body><h1>Account page</h1>" +
		"<p>Welcome back, " + user + "!</p>" +
		"<p>Card on file: " + cardFor(user) + "</p>" +
		"<div>" + strings.Repeat("shared catalog content block. ", 40) + "</div>" +
		"</body></html>")
}

func TestAnonymizationRemovesPrivateData(t *testing.T) {
	base := personalDoc("alice-owner")
	p := NewProcess(base, "alice-owner", Config{M: 1, N: 4})
	for _, u := range []string{"bob", "carol", "dave", "erin"} {
		if !p.Compare(personalDoc(u), u) {
			t.Fatalf("comparison for %s did not count", u)
		}
	}
	anon, err := p.Result()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(anon, []byte("alice-owner")) {
		t.Error("anonymized base still contains the owner's user name")
	}
	if bytes.Contains(anon, []byte(cardFor("alice-owner"))) {
		t.Error("anonymized base still contains the owner's card number")
	}
	if !bytes.Contains(anon, []byte("shared catalog content block")) {
		t.Error("anonymization removed shared (useful) content")
	}
	if len(anon) >= len(base) {
		t.Errorf("anonymized base (%d bytes) not smaller than original (%d)", len(anon), len(base))
	}
}

func TestResultBeforeDoneFails(t *testing.T) {
	p := NewProcess(personalDoc("o"), "o", Config{M: 1, N: 3})
	p.Compare(personalDoc("x"), "x")
	if _, err := p.Result(); !errors.Is(err, ErrNotDone) {
		t.Errorf("got %v, want ErrNotDone", err)
	}
	done, needed := p.Progress()
	if done != 1 || needed != 3 {
		t.Errorf("Progress() = %d/%d, want 1/3", done, needed)
	}
}

func TestOwnerComparisonsDoNotCount(t *testing.T) {
	p := NewProcess(personalDoc("owner"), "owner", Config{M: 1, N: 2})
	if p.Compare(personalDoc("owner"), "owner") {
		t.Error("owner's own document must not count (footnote 5)")
	}
	if p.Done() {
		t.Error("process done after zero valid comparisons")
	}
}

func TestDuplicateUsersDoNotCount(t *testing.T) {
	p := NewProcess(personalDoc("o"), "o", Config{M: 1, N: 3})
	if !p.Compare(personalDoc("bob"), "bob") {
		t.Fatal("first bob comparison should count")
	}
	if p.Compare(personalDoc("bob"), "bob") {
		t.Error("repeat user must not count: users must be distinct")
	}
	done, _ := p.Progress()
	if done != 1 {
		t.Errorf("comparisons = %d, want 1", done)
	}
}

func TestComparisonsStopAtN(t *testing.T) {
	p := NewProcess(personalDoc("o"), "o", Config{M: 1, N: 2})
	p.Compare(personalDoc("a"), "a")
	p.Compare(personalDoc("b"), "b")
	if p.Compare(personalDoc("c"), "c") {
		t.Error("comparison counted beyond N")
	}
	if !p.Done() {
		t.Error("process should be done after N comparisons")
	}
}

func TestMZeroKeepsEverything(t *testing.T) {
	base := personalDoc("owner")
	anon, err := Anonymize(base, [][]byte{personalDoc("a"), personalDoc("b")}, Config{M: 0, N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(anon, base) {
		t.Error("M=0 (no privacy) must keep the base-file unchanged")
	}
}

func TestHigherMRemovesMore(t *testing.T) {
	// Content shared by exactly 2 of 6 users survives M=2 but not M=3.
	shared := strings.Repeat("COMMON-TO-ALL-USERS ", 30)
	pairSecret := "CORPORATE-CARD-9999-8888-7777-6666"
	mkdoc := func(user string, includePair bool) []byte {
		s := "user:" + user + " " + shared
		if includePair {
			s += pairSecret
		}
		return []byte(s)
	}
	base := mkdoc("owner", true)
	docs := [][]byte{
		mkdoc("u1", true), mkdoc("u2", true),
		mkdoc("u3", false), mkdoc("u4", false), mkdoc("u5", false), mkdoc("u6", false),
	}
	anonM2, err := Anonymize(base, docs, Config{M: 2, N: 6})
	if err != nil {
		t.Fatal(err)
	}
	anonM3, err := Anonymize(base, docs, Config{M: 3, N: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(anonM2, []byte("CORPORATE-CARD")) {
		t.Error("M=2 should keep content common with 2 users")
	}
	if bytes.Contains(anonM3, []byte("CORPORATE-CARD")) {
		t.Error("M=3 should remove content common with only 2 users")
	}
	if len(anonM3) > len(anonM2) {
		t.Errorf("higher M should not produce a larger base: M3=%d M2=%d", len(anonM3), len(anonM2))
	}
}

func TestChunkCountersNeverExceedN(t *testing.T) {
	base := personalDoc("o")
	p := NewProcess(base, "o", Config{M: 2, N: 4})
	for i := 0; i < 4; i++ {
		p.Compare(personalDoc(fmt.Sprintf("user%d", i)), fmt.Sprintf("user%d", i))
	}
	for i, c := range p.ChunkCounters() {
		if c > 4 {
			t.Errorf("chunk %d counter %d exceeds N=4", i, c)
		}
	}
}

func TestResultOnlyKeepsChunksSeenM(t *testing.T) {
	// Property: every aligned chunk of the result must have a counter >= M
	// in the original process. Verify via the counters directly.
	base := personalDoc("owner")
	cfg := Config{M: 2, N: 5, ChunkSize: 4}
	p := NewProcess(base, "owner", cfg)
	for i := 0; i < 5; i++ {
		u := fmt.Sprintf("user-%c", 'a'+i)
		p.Compare(personalDoc(u), u)
	}
	anon, err := p.Result()
	if err != nil {
		t.Fatal(err)
	}
	counters := p.ChunkCounters()
	kept := 0
	for _, c := range counters {
		if c >= cfg.M {
			kept++
		}
	}
	// The result is exactly the concatenation of the kept chunks; the last
	// kept chunk may be partial.
	min := (kept - 1) * cfg.ChunkSize
	max := kept * cfg.ChunkSize
	if kept == 0 {
		min, max = 0, 0
	}
	if len(anon) < min || len(anon) > max {
		t.Errorf("anonymized length %d outside [%d,%d] for %d kept chunks", len(anon), min, max, kept)
	}
}

func TestAnonymizeTooFewDocs(t *testing.T) {
	_, err := Anonymize(personalDoc("o"), [][]byte{personalDoc("a")}, Config{M: 1, N: 3})
	if !errors.Is(err, ErrNotDone) {
		t.Errorf("got %v, want ErrNotDone", err)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.ChunkSize != DefaultChunkSize || c.N != DefaultN {
		t.Errorf("unexpected defaults: %+v", c)
	}
	c = Config{M: 10, N: 4}.withDefaults()
	if c.M > c.N {
		t.Errorf("M should be clamped to N: %+v", c)
	}
	c = Config{M: -1}.withDefaults()
	if c.M != DefaultM {
		t.Errorf("negative M should default: %+v", c)
	}
}

func TestEmptyBase(t *testing.T) {
	p := NewProcess(nil, "o", Config{M: 1, N: 1})
	p.Compare([]byte("whatever"), "u")
	anon, err := p.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(anon) != 0 {
		t.Errorf("empty base should anonymize to empty, got %d bytes", len(anon))
	}
}

func TestProcessConcurrent(t *testing.T) {
	base := personalDoc("owner")
	p := NewProcess(base, "owner", Config{M: 2, N: 50})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				u := fmt.Sprintf("w%d-u%d", w, i)
				p.Compare(personalDoc(u), u)
			}
		}(w)
	}
	wg.Wait()
	done, needed := p.Progress()
	if done != 50 || needed != 50 {
		t.Errorf("Progress() = %d/%d, want 50/50", done, needed)
	}
	if _, err := p.Result(); err != nil {
		t.Fatal(err)
	}
}

// TestCompareOrderIndependent runs N distinct users' comparisons at once
// (their scans overlap outside the lock and land in any order) and
// requires exactly the counters and result of the sequential run: the
// counters are sums.
func TestCompareOrderIndependent(t *testing.T) {
	sections := []string{"<p>spec sheet, dimensions, weight and finish</p>",
		"<p>reviews from verified buyers, sorted by date</p>",
		"<p>related accessories and bundles for this model</p>"}
	base := []byte(string(personalDoc("owner")) + strings.Join(sections, ""))
	const n = 9
	docs := make([][]byte, n)
	for i := range docs {
		// Each user's page carries a different subset of the base's
		// optional sections, so the chunk counters differ chunk to chunk.
		doc := string(personalDoc(fmt.Sprintf("u%d", i)))
		for k, sec := range sections {
			if i>>k&1 == 1 {
				doc += sec
			}
		}
		docs[i] = []byte(doc)
	}
	cfg := Config{M: 3, N: n}
	seq := NewProcess(base, "owner", cfg)
	for i, doc := range docs {
		seq.Compare(doc, fmt.Sprintf("u%d", i))
	}
	wantCounters := seq.ChunkCounters()
	want, err := seq.Result()
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 20; round++ {
		p := NewProcess(base, "owner", cfg)
		var wg sync.WaitGroup
		for i, doc := range docs {
			wg.Add(1)
			go func(i int, doc []byte) {
				defer wg.Done()
				if !p.Compare(doc, fmt.Sprintf("u%d", i)) {
					t.Errorf("round %d: user u%d did not count", round, i)
				}
			}(i, doc)
		}
		wg.Wait()
		got, err := p.Result()
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(p.ChunkCounters()) != fmt.Sprint(wantCounters) || !bytes.Equal(got, want) {
			t.Fatalf("round %d: concurrent comparisons differ from the sequential run", round)
		}
	}
}

func TestWants(t *testing.T) {
	p := NewProcess(personalDoc("owner"), "owner", Config{M: 1, N: 2})
	if p.Wants("owner") {
		t.Error("Wants(owner) = true: the owner's documents never count")
	}
	if !p.Wants("a") {
		t.Error("Wants(new user) = false on a fresh process")
	}
	p.Compare(personalDoc("a"), "a")
	if p.Wants("a") {
		t.Error("Wants(repeated user) = true")
	}
	p.Compare(personalDoc("b"), "b")
	if !p.Done() || p.Wants("c") {
		t.Errorf("done process: Done() = %v, Wants(new user) = %v; want true, false", p.Done(), p.Wants("c"))
	}
}

func TestPrivacyBoundPaperExample(t *testing.T) {
	// p=0.01, N=10, M=5: bound 4.7e-7, exact 2.4e-8 (Section V).
	bound := PrivacyBoundIID(10, 5, 0.01)
	if math.Abs(bound-4.7e-7)/4.7e-7 > 0.05 {
		t.Errorf("PrivacyBoundIID(10,5,0.01) = %g, paper says ~4.7e-7", bound)
	}
	exact := PrivacyExact(10, 5, 0.01)
	if math.Abs(exact-2.4e-8)/2.4e-8 > 0.05 {
		t.Errorf("PrivacyExact(10,5,0.01) = %g, paper says ~2.4e-8", exact)
	}
	if exact > bound {
		t.Errorf("exact %g exceeds bound %g", exact, bound)
	}
}

func TestPrivacyBoundDecayingTighter(t *testing.T) {
	// With decaying p_j the bound must be (weakly) tighter than the i.i.d.
	// bound for M >= 2 and p < 1.
	for _, m := range []int{2, 3, 5} {
		dec := PrivacyBoundDecaying(10, m, 0.01)
		iid := PrivacyBoundIID(10, m, 0.01)
		if dec > iid {
			t.Errorf("M=%d: decaying bound %g exceeds iid bound %g", m, dec, iid)
		}
	}
}

func TestPrivacyExactProperties(t *testing.T) {
	if got := PrivacyExact(10, 0, 0.5); got != 1 {
		t.Errorf("M=0 => certainty of failure, got %g", got)
	}
	if got := PrivacyExact(5, 6, 0.5); got != 0 {
		t.Errorf("M>N is impossible, got %g", got)
	}
	// Monotone decreasing in M.
	prev := 1.0
	for m := 1; m <= 10; m++ {
		v := PrivacyExact(10, m, 0.1)
		if v > prev {
			t.Errorf("PrivacyExact not decreasing at M=%d: %g > %g", m, v, prev)
		}
		prev = v
	}
	// Monotone increasing in p.
	if PrivacyExact(10, 3, 0.01) > PrivacyExact(10, 3, 0.5) {
		t.Error("PrivacyExact not increasing in p")
	}
}

func TestPrivacyBoundsCappedAtOne(t *testing.T) {
	for _, f := range []func(int, int, float64) float64{PrivacyBoundIID, PrivacyBoundDecaying} {
		if got := f(100, 1, 0.9); got > 1 {
			t.Errorf("bound not capped: %g", got)
		}
	}
}
