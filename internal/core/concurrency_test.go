package core

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"sync"
	"testing"
	"time"

	"cbde/internal/anonymize"
)

// heldBase is the client-side cache entry a stress goroutine keeps per
// class: the base bytes it downloaded and their version.
type heldBase struct {
	version int
	base    []byte
}

// stressClient simulates one delta-capable client: it remembers the bases
// it holds, advertises them on every request, decodes every delta response
// and checks the reconstruction, and verifies the engine's version
// invariants from its (sequential) point of view.
type stressClient struct {
	t      *testing.T
	e      *Engine
	user   string
	held   map[string]heldBase
	latest map[string]int // newest LatestVersion observed per class
}

func newStressClient(t *testing.T, e *Engine, user string) *stressClient {
	return &stressClient{
		t:      t,
		e:      e,
		user:   user,
		held:   make(map[string]heldBase),
		latest: make(map[string]int),
	}
}

// request runs doc through Engine.Process advertising every held base, then
// checks the response invariants:
//
//   - a delta response names a base the client advertised, and applying the
//     delta to that base reproduces doc byte-for-byte;
//   - LatestVersion never goes backwards from this client's point of view
//     (its calls to one class are sequential, and distVersion is monotone);
//   - a base fetched after the response is at least as new as the version
//     the response announced.
func (c *stressClient) request(url string, doc []byte) {
	req := Request{URL: url, UserID: c.user, Doc: doc}
	for id, hb := range c.held {
		req.Held = append(req.Held, HeldBase{ClassID: id, Version: hb.version})
	}
	resp, err := c.e.Process(req)
	if err != nil {
		c.t.Errorf("Process(%s): %v", url, err)
		return
	}
	if resp.ClassID == "" {
		c.t.Errorf("Process(%s): empty ClassID", url)
		return
	}
	if resp.LatestVersion < c.latest[resp.ClassID] {
		c.t.Errorf("class %s: LatestVersion went backwards: %d after %d",
			resp.ClassID, resp.LatestVersion, c.latest[resp.ClassID])
	}
	c.latest[resp.ClassID] = resp.LatestVersion

	if resp.Kind == KindDelta {
		hb, ok := c.held[resp.ClassID]
		if !ok || hb.version != resp.BaseVersion {
			c.t.Errorf("class %s: delta against version %d, client holds %+v",
				resp.ClassID, resp.BaseVersion, hb)
			return
		}
		got, err := c.e.DecodeAs(hb.base, resp.Payload, resp.Gzipped, resp.Format)
		if err != nil {
			c.t.Errorf("class %s: decode delta (v%d, %s): %v",
				resp.ClassID, resp.BaseVersion, resp.Format, err)
			return
		}
		if !bytes.Equal(got, doc) {
			c.t.Errorf("class %s: round trip mismatch: got %d bytes, want %d",
				resp.ClassID, len(got), len(doc))
		}
	}

	// Refresh the held base when the server announced a newer one.
	if hb := c.held[resp.ClassID]; resp.LatestVersion > hb.version {
		base, v, ok := c.e.LatestBase(resp.ClassID)
		if !ok {
			// The class can transiently have no distributable base only
			// before its first version; after an announcement it must.
			c.t.Errorf("class %s: LatestBase missing after LatestVersion=%d",
				resp.ClassID, resp.LatestVersion)
			return
		}
		if v < resp.LatestVersion {
			c.t.Errorf("class %s: LatestBase version %d older than announced %d",
				resp.ClassID, v, resp.LatestVersion)
		}
		c.held[resp.ClassID] = heldBase{version: v, base: base}
	}
}

// TestConcurrentProcessStress drives the full pipeline — grouping, selector
// observation, anonymization, snapshot encode, rebases — from many
// goroutines across several classes, with concurrent readers (Stats,
// BaseFile, Checkpoint) mixed in. Run under `go test -race`; it is the
// repo's evidence for the engine's "safe for concurrent use" claim.
func TestConcurrentProcessStress(t *testing.T) {
	const (
		goroutines = 8
		classes    = 4
		requests   = 250
	)
	e := newTestEngine(t, Config{
		Anon:     anonymize.Config{M: 1, N: 2},
		Now:      time.Now, // the deterministic test clock is not needed here
		SpillDir: t.TempDir(),
	})
	defer e.Close()

	depts := make([]string, classes)
	for c := range depts {
		depts[c] = fmt.Sprintf("dept%d", c)
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		// Concurrent observer: engine-wide snapshots and base fetches must
		// never race with serving. Runs until the writers finish.
		defer readers.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			st := e.Stats()
			if st.BytesDelta+st.BytesFull > st.BytesDirect {
				t.Errorf("sent more bytes than direct: %+v", st)
				return
			}
			if _, ok := e.GroupingStats(); !ok {
				t.Error("GroupingStats unavailable in class-based mode")
				return
			}
			if i%3 == 0 {
				if _, err := e.Checkpoint(); err != nil {
					t.Errorf("Checkpoint: %v", err)
					return
				}
				// Nothing evicts here, so only the checkpoint could have
				// flagged a class — and a flag costs its next request a
				// disk read.
				for _, st := range e.AllClassStats() {
					if st.Spilled {
						t.Errorf("Checkpoint flagged live class %q as spilled", st.ID)
						return
					}
				}
			}
			_ = e.Metrics().Snapshot()
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := newStressClient(t, e, fmt.Sprintf("user-%d", g))
			for i := 0; i < requests; i++ {
				c := (g + i) % classes
				item := i % 3
				url := fmt.Sprintf("www.shop.com/%s/%d", depts[c], item)
				doc := renderDoc(depts[c], item, i, cl.user)
				cl.request(url, doc)
				if i%7 == 0 {
					// Random-ish base fetches, including versions that may
					// have been pruned: must return cleanly either way.
					for id, hb := range cl.held {
						if base, ok := e.BaseFile(id, hb.version); ok && len(base) == 0 {
							t.Errorf("class %s: BaseFile(v%d) returned empty base", id, hb.version)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	readers.Wait()

	st := e.Stats()
	if want := int64(goroutines * requests); st.Requests != want {
		t.Errorf("requests = %d, want %d", st.Requests, want)
	}
	if st.DeltaResponses == 0 {
		t.Error("stress run produced no delta responses; delta path not exercised")
	}
	if st.DeltaResponses+st.FullResponses != st.Requests {
		t.Errorf("responses (%d delta + %d full) do not add up to %d requests",
			st.DeltaResponses, st.FullResponses, st.Requests)
	}
}

// TestConcurrentBasicRebaseStress hammers the oversized-delta path: every
// goroutine alternates between two unrelated incompressible documents on
// the same URLs, so nearly every delta trips MaxDeltaRatio and requests
// race to basic-rebase the class. The encode-then-revalidate split must
// keep exactly one rebase per drift and every delta decodable.
func TestConcurrentBasicRebaseStress(t *testing.T) {
	const (
		goroutines = 8
		requests   = 200
	)
	e := newTestEngine(t, Config{
		Mode: ModeClassless, // rebases distribute immediately: worst case
		Now:  time.Now,
	})

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := newStressClient(t, e, fmt.Sprintf("user-%d", g))
			for i := 0; i < requests; i++ {
				url := fmt.Sprintf("www.churn.com/page/%d", i%2)
				// Two document families far apart, alternating per visit to
				// each URL, plus a small personal twist so goroutines do not
				// all submit identical bytes.
				family := uint64(i/2) % 2
				doc := append(incompressible(3+family*17, 4096),
					[]byte(fmt.Sprintf("<user %s seq %d>", cl.user, i))...)
				cl.request(url, doc)
			}
		}(g)
	}
	wg.Wait()

	st := e.Stats()
	if want := int64(goroutines * requests); st.Requests != want {
		t.Errorf("requests = %d, want %d", st.Requests, want)
	}
	if st.BasicRebases == 0 {
		t.Error("rebase stress produced no basic-rebases; oversized path not exercised")
	}
}

// TestConcurrentStateCreation races many goroutines on first contact with
// the same classes: the sharded table must hand every goroutine the same
// classState per key, never two.
func TestConcurrentStateCreation(t *testing.T) {
	e := newTestEngine(t, Config{Mode: ModeClassless, Now: time.Now})
	const goroutines = 16
	var wg sync.WaitGroup
	states := make([]*classState, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			states[g] = e.state("url:www.same.com/page", nil)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if states[g] != states[0] {
			t.Fatalf("goroutine %d got a different classState for the same key", g)
		}
	}
	if n := len(e.states()); n != 1 {
		t.Fatalf("engine holds %d classStates, want 1", n)
	}
}

// TestConcurrentPayloadAliasingStress is the buffer-ownership audit for the
// pooled encode pipeline, run under `go test -race`. Encoder scratch and
// gzip state are recycled across requests, so the test attacks the two
// places a recycled buffer could leak: Response.Payload must never alias
// pooled memory (a later request would rewrite bytes a client still holds),
// and BaseFileView's zero-copy bytes must stay immutable while serving and
// rebasing continue. Every goroutine retains the payloads it was served and
// only decodes them after all serving has finished; if any payload shared a
// pooled buffer, the interleaved requests would have corrupted it and the
// checksum or the decode would fail.
func TestConcurrentPayloadAliasingStress(t *testing.T) {
	const (
		goroutines = 8
		classes    = 3
		requests   = 120
	)
	e := newTestEngine(t, Config{
		Anon: anonymize.Config{M: 1, N: 2},
		Now:  time.Now,
	})

	// Warm each class until it distributes a base, then pin the base bytes'
	// checksum via the zero-copy view.
	type warmBase struct {
		classID string
		version int
		view    []byte
		sum     uint32
	}
	bases := make([]warmBase, classes)
	for c := 0; c < classes; c++ {
		dept := fmt.Sprintf("alias%d", c)
		var resp Response
		for u := 0; u < 6 && resp.LatestVersion == 0; u++ {
			var err error
			url := fmt.Sprintf("www.shop.com/%s/%d", dept, 0)
			user := fmt.Sprintf("warm-%d-%d", c, u)
			resp, err = e.Process(Request{URL: url, UserID: user, Doc: renderDoc(dept, 0, u, user)})
			if err != nil {
				t.Fatal(err)
			}
		}
		if resp.LatestVersion == 0 {
			t.Fatalf("class %d: no distributable base after warmup", c)
		}
		view, ok := e.BaseFileView(resp.ClassID, resp.LatestVersion)
		if !ok {
			t.Fatalf("class %d: BaseFileView missing for v%d", c, resp.LatestVersion)
		}
		bases[c] = warmBase{
			classID: resp.ClassID,
			version: resp.LatestVersion,
			view:    view,
			sum:     crc32.ChecksumIEEE(view),
		}
	}

	type servedDelta struct {
		payload []byte
		sum     uint32 // payload checksum at capture time
		gzipped bool
		format  Format
		base    int    // index into bases
		doc     []byte // expected reconstruction
	}
	retained := make([][]servedDelta, goroutines)

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < requests; i++ {
				c := (g + i) % classes
				wb := bases[c]
				dept := fmt.Sprintf("alias%d", c)
				user := fmt.Sprintf("client-%d", g)
				doc := renderDoc(dept, 0, 100+g*requests+i, user)
				resp, err := e.Process(Request{
					URL: fmt.Sprintf("www.shop.com/%s/%d", dept, 0), UserID: user, Doc: doc,
					HaveClassID: wb.classID, HaveVersion: wb.version,
				})
				if err != nil {
					t.Errorf("Process: %v", err)
					return
				}
				if resp.Kind != KindDelta || resp.BaseVersion != wb.version {
					continue // full response or rebased base; nothing to retain
				}
				retained[g] = append(retained[g], servedDelta{
					payload: resp.Payload,
					sum:     crc32.ChecksumIEEE(resp.Payload),
					gzipped: resp.Gzipped,
					format:  resp.Format,
					base:    c,
					doc:     doc,
				})
				// Interleave concurrent pooled-reader work: decoding an
				// earlier payload uses gzipx.Decompress's pooled gzip.Reader
				// while other goroutines are mid-encode.
				if n := len(retained[g]); i%3 == 0 && n > 1 {
					earlier := retained[g][n/2]
					got, err := e.DecodeAs(bases[earlier.base].view, earlier.payload,
						earlier.gzipped, earlier.format)
					if err != nil {
						t.Errorf("mid-run decode: %v", err)
						return
					}
					if !bytes.Equal(got, earlier.doc) {
						t.Errorf("mid-run decode mismatch: got %d bytes, want %d",
							len(got), len(earlier.doc))
						return
					}
				}
			}
		}(g)
	}

	// Concurrent base readers: the zero-copy view must never change while
	// requests are being served against it.
	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, wb := range bases {
				if sum := crc32.ChecksumIEEE(wb.view); sum != wb.sum {
					t.Errorf("class %s: BaseFileView bytes mutated while serving", wb.classID)
					return
				}
			}
		}
	}()

	wg.Wait()
	close(done)
	readers.Wait()
	if t.Failed() {
		return
	}

	// All serving is over; every pooled buffer has been recycled many times.
	// Retained payloads must be bit-identical to capture time and still
	// reconstruct their documents from the (equally untouched) base views.
	total := 0
	for g := range retained {
		for i, sd := range retained[g] {
			if sum := crc32.ChecksumIEEE(sd.payload); sum != sd.sum {
				t.Fatalf("goroutine %d payload %d mutated after serving: pooled buffer aliased", g, i)
			}
			got, err := e.DecodeAs(bases[sd.base].view, sd.payload, sd.gzipped, sd.format)
			if err != nil {
				t.Fatalf("goroutine %d payload %d: decode after serving: %v", g, i, err)
			}
			if !bytes.Equal(got, sd.doc) {
				t.Fatalf("goroutine %d payload %d: reconstruction mismatch after serving", g, i)
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("stress run retained no delta payloads; aliasing audit did not execute")
	}
	for _, wb := range bases {
		if sum := crc32.ChecksumIEEE(wb.view); sum != wb.sum {
			t.Fatalf("class %s: BaseFileView bytes mutated by run", wb.classID)
		}
	}
}
