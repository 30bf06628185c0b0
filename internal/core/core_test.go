package core

import (
	"bytes"
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"testing"
	"time"

	"cbde/internal/anonymize"
	"cbde/internal/basefile"
)

// testClock is a deterministic clock advancing one second per call.
type testClock struct {
	mu  sync.Mutex
	now time.Time
}

func newTestClock() *testClock { return &testClock{now: time.Unix(1_000_000, 0)} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(time.Second)
	return c.now
}

// cardFor derives a unique fake card number from the user name.
func cardFor(user string) string {
	h := fnv.New64a()
	h.Write([]byte(user))
	return fmt.Sprintf("4111-%08d", h.Sum64()%100000000)
}

// renderDoc produces a personalized dynamic document: a large department
// template shared across items (but substantially different across
// departments), item-specific content, a churning region that changes every
// tick, and private per-user data.
func renderDoc(dept string, item, tick int, user string) []byte {
	var b strings.Builder
	b.WriteString("<html><head><title>" + dept + "</title></head><body>\n")
	row := strings.Repeat(dept+"-catalog-section ", 4)
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&b, "<nav-block id=%d>%s row-%d</nav-block>\n", i, row, i*31+len(dept))
	}
	fmt.Fprintf(&b, "<item id=%d>unique description for item %d in %s: %d</item>\n", item, item, dept, item*7919)
	fmt.Fprintf(&b, "<ticker>stock level %d, updated at tick %d</ticker>\n", (item*13+tick*7)%100, tick)
	if user != "" {
		fmt.Fprintf(&b, "<account>signed in as %s; card %s</account>\n", user, cardFor(user))
	}
	b.WriteString("</body></html>\n")
	return []byte(b.String())
}

// incompressible returns size bytes of seeded pseudo-random data that
// neither gzip nor target self-copies can shrink.
func incompressible(seed uint64, size int) []byte {
	out := make([]byte, size)
	x := seed*2862933555777941757 + 3037000493
	for i := range out {
		x = x*2862933555777941757 + 3037000493
		out[i] = byte(x >> 56)
	}
	return out
}

func newTestEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	if cfg.Now == nil {
		cfg.Now = newTestClock().Now
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// warmClass sends enough distinct-user requests to complete anonymization
// and returns the class ID.
func warmClass(t *testing.T, e *Engine, dept string, users int) string {
	t.Helper()
	classID := ""
	for u := 0; u < users; u++ {
		user := fmt.Sprintf("user-%d", u)
		url := fmt.Sprintf("www.shop.com/%s/%d", dept, u%3)
		resp, err := e.Process(Request{URL: url, UserID: user, Doc: renderDoc(dept, u%3, u, user)})
		if err != nil {
			t.Fatal(err)
		}
		classID = resp.ClassID
	}
	return classID
}

func TestProcessRequiresDocument(t *testing.T) {
	e := newTestEngine(t, Config{})
	if _, err := e.Process(Request{URL: "www.shop.com/a/1"}); !errors.Is(err, ErrNoDocument) {
		t.Errorf("got %v, want ErrNoDocument", err)
	}
}

func TestFirstRequestsAreFullUntilAnonymized(t *testing.T) {
	e := newTestEngine(t, Config{Anon: anonymize.Config{M: 1, N: 3}})
	// Three requests from the owner only: anonymization cannot complete.
	for i := 0; i < 3; i++ {
		resp, err := e.Process(Request{
			URL:    "www.shop.com/laptops/1",
			UserID: "owner",
			Doc:    renderDoc("laptops", 1, i, "owner"),
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Kind != KindFull {
			t.Fatalf("request %d: kind = %v, want full before anonymization", i, resp.Kind)
		}
		if resp.LatestVersion != 0 {
			t.Fatalf("request %d: LatestVersion = %d, want 0", i, resp.LatestVersion)
		}
	}
	// Three distinct other users complete the process.
	for i := 0; i < 3; i++ {
		user := fmt.Sprintf("u%d", i)
		if _, err := e.Process(Request{
			URL:    "www.shop.com/laptops/1",
			UserID: user,
			Doc:    renderDoc("laptops", 1, 10+i, user),
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.AnonCompleted != 1 {
		t.Errorf("AnonCompleted = %d, want 1", st.AnonCompleted)
	}
	resp, err := e.Process(Request{
		URL: "www.shop.com/laptops/1", UserID: "u9",
		Doc: renderDoc("laptops", 1, 20, "u9"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.LatestVersion == 0 {
		t.Error("LatestVersion still 0 after anonymization completed")
	}
}

func TestDeltaRoundTripThroughEngine(t *testing.T) {
	e := newTestEngine(t, Config{Anon: anonymize.Config{M: 1, N: 3}})
	classID := warmClass(t, e, "laptops", 8)

	base, version, ok := e.LatestBase(classID)
	if !ok {
		t.Fatal("no distributable base after warmup")
	}

	doc := renderDoc("laptops", 2, 99, "client-user")
	resp, err := e.Process(Request{
		URL: "www.shop.com/laptops/2", UserID: "client-user", Doc: doc,
		HaveClassID: classID, HaveVersion: version,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindDelta {
		t.Fatalf("kind = %v, want delta for a client holding the base", resp.Kind)
	}
	if len(resp.Payload) >= len(doc)/2 {
		t.Errorf("delta payload %d bytes for a %d-byte doc, want substantial savings", len(resp.Payload), len(doc))
	}
	got, err := e.Decode(base, resp.Payload, resp.Gzipped)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, doc) {
		t.Error("client reconstruction does not match the document")
	}
}

func TestClientWithoutBaseGetsFull(t *testing.T) {
	e := newTestEngine(t, Config{Anon: anonymize.Config{M: 1, N: 3}})
	classID := warmClass(t, e, "laptops", 8)

	resp, err := e.Process(Request{
		URL: "www.shop.com/laptops/2", UserID: "newcomer",
		Doc: renderDoc("laptops", 2, 50, "newcomer"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindFull {
		t.Errorf("kind = %v, want full for a client without the base", resp.Kind)
	}
	if resp.ClassID != classID || resp.LatestVersion == 0 {
		t.Errorf("response must advertise class %q and a version, got %q v%d",
			classID, resp.ClassID, resp.LatestVersion)
	}
	// The advertised base must be fetchable.
	if _, ok := e.BaseFile(resp.ClassID, resp.LatestVersion); !ok {
		t.Error("advertised base-file not fetchable")
	}
}

func TestStaleClientVersionGetsFull(t *testing.T) {
	e := newTestEngine(t, Config{Anon: anonymize.Config{M: 1, N: 3}})
	classID := warmClass(t, e, "laptops", 8)
	resp, err := e.Process(Request{
		URL: "www.shop.com/laptops/1", UserID: "u1",
		Doc:         renderDoc("laptops", 1, 60, "u1"),
		HaveClassID: classID, HaveVersion: 999, // version the server never had
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != KindFull {
		t.Errorf("kind = %v, want full for an unknown client version", resp.Kind)
	}
}

func TestAnonymizedBaseOmitsPrivateData(t *testing.T) {
	e := newTestEngine(t, Config{Anon: anonymize.Config{M: 1, N: 5}})
	classID := warmClass(t, e, "laptops", 10)
	base, _, ok := e.LatestBase(classID)
	if !ok {
		t.Fatal("no base")
	}
	if bytes.Contains(base, []byte("signed in as user-")) {
		t.Error("distributed base-file leaks a user name")
	}
	if bytes.Contains(base, []byte("card 4111-")) {
		t.Error("distributed base-file leaks a card number")
	}
	if !bytes.Contains(base, []byte("laptops-catalog-section")) {
		t.Error("anonymization stripped shared template content")
	}
}

func TestBasicRebaseOnDrift(t *testing.T) {
	e := newTestEngine(t, Config{
		Anon:          anonymize.Config{M: 1, N: 2},
		MaxDeltaRatio: 0.2,
	})
	classID := warmClass(t, e, "laptops", 6)
	_, version, _ := e.LatestBase(classID)

	// A document that shares almost nothing with the base forces a delta
	// larger than 20% of the doc: basic-rebase.
	alien := incompressible(42, 8000)
	resp, err := e.Process(Request{
		URL: "www.shop.com/laptops/1", UserID: "u1", Doc: alien,
		HaveClassID: classID, HaveVersion: version,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.BasicRebase {
		t.Fatal("expected a basic-rebase for an alien document")
	}
	if resp.Kind != KindFull {
		t.Error("basic-rebase response must be full")
	}
	if got := e.Stats().BasicRebases; got != 1 {
		t.Errorf("BasicRebases = %d, want 1", got)
	}
}

func TestClasslessModeOneStatePerURL(t *testing.T) {
	e := newTestEngine(t, Config{Mode: ModeClassless})
	for i := 0; i < 10; i++ {
		url := fmt.Sprintf("www.shop.com/laptops/%d", i)
		if _, err := e.Process(Request{URL: url, UserID: "u", Doc: renderDoc("laptops", i, 0, "u")}); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Stats().Classes; got != 10 {
		t.Errorf("classless states = %d, want 10 (one per URL)", got)
	}
	if _, ok := e.GroupingStats(); ok {
		t.Error("GroupingStats should be unavailable in classless mode")
	}
}

func TestClasslessPerUserModeExplodesStorage(t *testing.T) {
	const users, items = 6, 4
	run := func(mode Mode) Stats {
		e := newTestEngine(t, Config{Mode: mode, Anon: anonymize.Config{M: 1, N: 2}})
		for tick := 0; tick < 3; tick++ {
			for u := 0; u < users; u++ {
				for i := 0; i < items; i++ {
					user := fmt.Sprintf("user-%d", u)
					url := fmt.Sprintf("www.shop.com/laptops/%d", i)
					if _, err := e.Process(Request{URL: url, UserID: user, Doc: renderDoc("laptops", i, tick, user)}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		return e.Stats()
	}
	classBased := run(ModeClassBased)
	perUser := run(ModeClasslessPerUser)

	if perUser.Classes != users*items {
		t.Errorf("per-user states = %d, want %d", perUser.Classes, users*items)
	}
	if classBased.Classes >= perUser.Classes {
		t.Errorf("class-based states (%d) should be far fewer than per-user (%d)",
			classBased.Classes, perUser.Classes)
	}
	if classBased.StorageBytes >= perUser.StorageBytes {
		t.Errorf("class-based storage %d should undercut per-user storage %d — the paper's headline",
			classBased.StorageBytes, perUser.StorageBytes)
	}
}

func TestSavingsSubstantialOnWarmClass(t *testing.T) {
	e := newTestEngine(t, Config{Anon: anonymize.Config{M: 1, N: 3}})
	classID := warmClass(t, e, "laptops", 6)

	// Simulate a client that keeps its base-file up to date.
	haveVersion := 0
	for i := 0; i < 100; i++ {
		user := fmt.Sprintf("steady-user-%d", i%7)
		doc := renderDoc("laptops", i%3, 100+i, user)
		resp, err := e.Process(Request{
			URL: fmt.Sprintf("www.shop.com/laptops/%d", i%3), UserID: user, Doc: doc,
			HaveClassID: classID, HaveVersion: haveVersion,
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.LatestVersion > haveVersion {
			haveVersion = resp.LatestVersion // client refreshes its base
		}
	}
	st := e.Stats()
	if st.DeltaResponses == 0 {
		t.Fatal("no delta responses at all")
	}
	if s := st.Savings(); s < 0.5 {
		t.Errorf("savings = %.2f, want > 0.5 on a warm class", s)
	}
}

func TestKeepBaseVersionsPrunes(t *testing.T) {
	clock := newTestClock()
	e := newTestEngine(t, Config{
		DisableAnonymization: true,
		GraphDepth:           2,
		MaxDeltaRatio:        0.9,
		Selector:             basefile.Config{SampleProb: 1, MaxSamples: 4},
		Now:                  clock.Now,
	})
	// Drive several basic-rebases with a client that keeps its base fresh
	// while the content jumps to unrelated generations.
	var classID string
	haveVersion := 0
	for i := 0; i < 20; i++ {
		doc := incompressible(uint64(i/4)+1, 6000) // new generation every 4 requests
		resp, err := e.Process(Request{
			URL: "www.shop.com/x/1", UserID: "u", Doc: doc,
			HaveClassID: classID, HaveVersion: haveVersion,
		})
		if err != nil {
			t.Fatal(err)
		}
		classID = resp.ClassID
		if resp.LatestVersion > haveVersion {
			haveVersion = resp.LatestVersion
		}
	}
	_, latest, ok := e.LatestBase(classID)
	if !ok || latest < 3 {
		t.Fatalf("expected several rebased versions, got latest=%d ok=%v", latest, ok)
	}
	for v := 1; v <= latest-2; v++ {
		if _, ok := e.BaseFile(classID, v); ok {
			t.Errorf("version %d still fetchable; want pruned (keep 2)", v)
		}
	}
	if _, ok := e.BaseFile(classID, latest); !ok {
		t.Error("latest version not fetchable")
	}
}

func TestBaseFileUnknown(t *testing.T) {
	e := newTestEngine(t, Config{})
	if _, ok := e.BaseFile("nope", 1); ok {
		t.Error("BaseFile returned ok for unknown class")
	}
	if _, _, ok := e.LatestBase("nope"); ok {
		t.Error("LatestBase returned ok for unknown class")
	}
}

func TestStatsConsistency(t *testing.T) {
	e := newTestEngine(t, Config{Anon: anonymize.Config{M: 1, N: 2}})
	warmClass(t, e, "laptops", 12)
	st := e.Stats()
	if st.Requests != st.FullResponses+st.DeltaResponses {
		t.Errorf("requests %d != full %d + delta %d", st.Requests, st.FullResponses, st.DeltaResponses)
	}
	if st.BytesDirect <= 0 {
		t.Error("BytesDirect not accounted")
	}
	if st.Mode != ModeClassBased {
		t.Errorf("mode = %v", st.Mode)
	}
}

func TestGroupingStatsAvailable(t *testing.T) {
	e := newTestEngine(t, Config{Anon: anonymize.Config{M: 1, N: 2}})
	warmClass(t, e, "laptops", 6)
	warmClass(t, e, "desktops", 6)
	gs, ok := e.GroupingStats()
	if !ok {
		t.Fatal("GroupingStats unavailable in class-based mode")
	}
	if gs.Classes < 2 {
		t.Errorf("classes = %d, want >= 2", gs.Classes)
	}
}

func TestDecodeErrors(t *testing.T) {
	e := newTestEngine(t, Config{})
	if _, err := e.Decode([]byte("base"), []byte("junk"), true); err == nil {
		t.Error("expected gzip error")
	}
	if _, err := e.Decode([]byte("base"), []byte("junk"), false); err == nil {
		t.Error("expected codec error")
	}
}

func TestEngineConcurrentProcess(t *testing.T) {
	e := newTestEngine(t, Config{Anon: anonymize.Config{M: 1, N: 3}})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				dept := []string{"laptops", "desktops"}[i%2]
				user := fmt.Sprintf("w%d-u%d", w, i%5)
				url := fmt.Sprintf("www.shop.com/%s/%d", dept, i%4)
				_, err := e.Process(Request{URL: url, UserID: user, Doc: renderDoc(dept, i%4, i, user)})
				if err != nil {
					t.Errorf("Process: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := e.Stats()
	if st.Requests != 8*30 {
		t.Errorf("requests = %d, want 240", st.Requests)
	}
}

func TestModeString(t *testing.T) {
	tests := map[Mode]string{
		ModeClassBased:       "class-based",
		ModeClassless:        "classless",
		ModeClasslessPerUser: "classless-per-user",
		Mode(9):              "Mode(9)",
	}
	for m, want := range tests {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(m), got, want)
		}
	}
	kinds := map[ResponseKind]string{KindFull: "full", KindDelta: "delta", ResponseKind(9): "ResponseKind(9)"}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("kind.String() = %q, want %q", got, want)
		}
	}
}

func TestWireSize(t *testing.T) {
	full := Response{Kind: KindFull}
	if got := full.WireSize(100); got != 100 {
		t.Errorf("full WireSize = %d, want 100", got)
	}
	delta := Response{Kind: KindDelta, Payload: make([]byte, 7)}
	if got := delta.WireSize(100); got != 7 {
		t.Errorf("delta WireSize = %d, want 7", got)
	}
}

func TestBadURLInClassBasedMode(t *testing.T) {
	e := newTestEngine(t, Config{})
	if _, err := e.Process(Request{URL: "://bad", UserID: "u", Doc: []byte("d")}); err == nil {
		t.Error("expected partition error")
	}
}
