package core

import (
	"bytes"
	"fmt"
	"regexp"
	"sync"
	"testing"

	"cbde/internal/anonymize"
	"cbde/internal/basefile"
	"cbde/internal/gzipx"
	"cbde/internal/origin"
)

// hintSite is a personalized synthetic site of one department with items
// pages: every user's copy of a page carries an account block with their
// name, card number and session id.
func hintSite(items int) *origin.Site {
	return origin.NewSite(origin.Config{
		Host:          "www.hint.com",
		Depts:         []origin.Dept{{Name: "catalog", Items: items}},
		TemplateBytes: 30000,
		ItemBytes:     3000,
		ChurnBytes:    1500,
		Personalized:  true,
		Seed:          2602,
	})
}

const hintURL = "www.hint.com/catalog/0"

// hintEngine warms hintURL's class on an anonymizing engine without
// candidate sampling and returns the engine and the held (class, version).
func hintEngine(t *testing.T, site *origin.Site) (*Engine, HeldBase) {
	t.Helper()
	e := newTestEngine(t, Config{
		Anon:     anonymize.Config{M: 1, N: 2},
		Selector: basefile.Config{SampleProb: -1},
	})
	var resp Response
	for u := 0; u < 4; u++ {
		user := fmt.Sprintf("warm-%d", u)
		doc, err := site.Render("catalog", 0, user, 0)
		if err != nil {
			t.Fatal(err)
		}
		if resp, err = e.Process(Request{URL: hintURL, UserID: user, Doc: doc}); err != nil {
			t.Fatal(err)
		}
	}
	if resp.LatestVersion == 0 {
		t.Fatal("no distributable base after warmup")
	}
	return e, HeldBase{ClassID: resp.ClassID, Version: resp.LatestVersion}
}

// serveDelta requests user's copy of hintURL at tick against the held base,
// checks the response is a delta that decodes to the document, and returns
// the raw (inflated) delta and the target bytes its encode replayed.
func serveDelta(t *testing.T, e *Engine, site *origin.Site, held HeldBase, user string, tick int) (doc, raw []byte, replayed int64) {
	t.Helper()
	doc, err := site.Render("catalog", 0, user, tick)
	if err != nil {
		t.Fatal(err)
	}
	replayed0 := e.ctr.encodeReplayed.Value()
	resp, err := e.Process(Request{URL: hintURL, UserID: user, Doc: doc, Held: []HeldBase{held}})
	if err != nil {
		t.Fatal(err)
	}
	decodeAgainstLiveBase(t, e, held.ClassID, resp, doc)
	raw = resp.Payload
	if resp.Gzipped {
		if raw, err = gzipx.Decompress(raw); err != nil {
			t.Fatal(err)
		}
	}
	return doc, raw, e.ctr.encodeReplayed.Value() - replayed0
}

// personalTokens extracts the name, card number and session id the origin
// rendered into doc's account block.
func personalTokens(t *testing.T, doc []byte) [][]byte {
	t.Helper()
	m := regexp.MustCompile(`signed in as ([^<]+)</p><p>card on file (\d+)</p><p>session ([0-9a-f]+)-`).FindSubmatch(doc)
	if m == nil {
		t.Fatal("document has no account block")
	}
	return m[1:]
}

// TestHintNeverLeaksAnotherUsersBytes encodes user v's page with user u's
// delta as the hint: the replay must cover most of the page, yet no byte of
// u's account block may reach v's delta, which decodes byte-exact.
func TestHintNeverLeaksAnotherUsersBytes(t *testing.T) {
	site := hintSite(2)
	e, held := hintEngine(t, site)
	uDoc, _, _ := serveDelta(t, e, site, held, "user-u", 1)
	for _, tick := range []int{1, 2} { // same tick as u, then one later
		vDoc, raw, replayed := serveDelta(t, e, site, held, "user-v", tick)
		if replayed < int64(len(vDoc))/2 {
			t.Errorf("tick %d: replayed %d of %d target bytes; u's hint was not used", tick, replayed, len(vDoc))
		}
		for _, tok := range personalTokens(t, uDoc) {
			if bytes.Contains(vDoc, tok) {
				t.Fatalf("user-v's own page contains user-u's token %q; pick other users", tok)
			}
			if bytes.Contains(raw, tok) {
				t.Errorf("tick %d: user-v's delta carries user-u's token %q", tick, tok)
			}
		}
		// Re-hint from u so the next tick replays u's delta again, not v's.
		serveDelta(t, e, site, held, "user-u", tick)
	}
}

// TestHintsUnderConcurrentUsers interleaves eight users on one URL through
// one engine (run it under -race): every delta must decode byte-exact while
// the users' encodes read and replace each other's hints.
func TestHintsUnderConcurrentUsers(t *testing.T) {
	site := hintSite(2)
	e, _ := hintEngine(t, site)
	const users, requests = 8, 40
	var wg sync.WaitGroup
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			c := newStressClient(t, e, fmt.Sprintf("user-%d", u))
			for i := 0; i < requests; i++ {
				doc, err := site.Render("catalog", 0, c.user, i/10)
				if err != nil {
					t.Error(err)
					return
				}
				c.request(hintURL, doc)
			}
		}(u)
	}
	wg.Wait()
	dc := e.DeltaCacheStats()
	if dc.ReplayedBytes == 0 {
		t.Fatal("no encode replayed a hint")
	}
	if got := e.StoreStats().Resident.DeltaBytes; got != dc.Bytes+dc.HintBytes {
		t.Errorf("delta ledger %d != %d cached + %d hint bytes", got, dc.Bytes, dc.HintBytes)
	}
}

// TestHintSlotsBeyondTheBound sends more URLs through one version than it
// has hint slots. Every slot stays occupied, displacement refunds the
// ledger (delta bytes == cached + hint bytes), a second engine fed the same
// request sequence keeps the same hints and emits the same deltas, and
// evicting the class drains every hint byte.
func TestHintSlotsBeyondTheBound(t *testing.T) {
	const urls = 2*maxHints + 5
	run := func() (payloads [][]byte, slots []string) {
		site := hintSite(urls)
		e, held := hintEngine(t, site)
		var replayed int64
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < urls; i++ {
				user := fmt.Sprintf("user-%d", (pass*urls+i)%5)
				doc, err := site.Render("catalog", i, user, pass)
				if err != nil {
					t.Fatal(err)
				}
				r0 := e.ctr.encodeReplayed.Value()
				url := fmt.Sprintf("www.hint.com/catalog/%d", i)
				resp, err := e.Process(Request{URL: url, UserID: user, Doc: doc, Held: []HeldBase{held}})
				if err != nil {
					t.Fatal(err)
				}
				if resp.ClassID != held.ClassID || resp.BaseVersion != held.Version {
					t.Fatalf("%s served against %s v%d, want %s v%d", url, resp.ClassID, resp.BaseVersion, held.ClassID, held.Version)
				}
				decodeAgainstLiveBase(t, e, held.ClassID, resp, doc)
				payloads = append(payloads, resp.Payload)
				replayed += e.ctr.encodeReplayed.Value() - r0
			}
		}
		if replayed == 0 {
			t.Error("no encode replayed a hint")
		}
		dc := e.DeltaCacheStats()
		if got := e.StoreStats().Resident.DeltaBytes; got != dc.Bytes+dc.HintBytes {
			t.Errorf("delta ledger %d != %d cached + %d hint bytes", got, dc.Bytes, dc.HintBytes)
		}
		cs, _ := e.lookup(held.ClassID)
		bv := cs.bases[held.Version]
		bv.hintMu.Lock()
		for _, h := range bv.hints {
			if h.delta == nil {
				t.Errorf("a hint slot is free after %d URLs", urls)
			}
			slots = append(slots, h.url)
		}
		bv.hintMu.Unlock()
		cs.Evict()
		if got := e.StoreStats().Resident.DeltaBytes; got != 0 {
			t.Errorf("delta ledger = %d after eviction, want exactly 0", got)
		}
		if got := e.DeltaCacheStats().HintBytes; got != 0 {
			t.Errorf("%d hint bytes survive eviction", got)
		}
		return payloads, slots
	}
	p1, s1 := run()
	p2, s2 := run()
	if fmt.Sprint(s1) != fmt.Sprint(s2) {
		t.Errorf("same requests left different hints:\n%v\n%v", s1, s2)
	}
	for i := range p1 {
		if !bytes.Equal(p1[i], p2[i]) {
			t.Fatalf("request %d: same requests emitted different deltas", i)
		}
	}
}

// TestHintStaysWithItsVersion installs version k+1 with the very bytes of
// version k: a hint recorded against k would verify against k+1, so only
// the per-version ownership keeps the first k+1 encode from replaying it.
func TestHintStaysWithItsVersion(t *testing.T) {
	site := hintSite(2)
	e, held := hintEngine(t, site)
	if _, _, replayed := serveDelta(t, e, site, held, "user-a", 1); replayed != 0 {
		t.Fatalf("first encode against v%d replayed %d bytes with no hint recorded", held.Version, replayed)
	}
	cs, _ := e.lookup(held.ClassID)
	cs.mu.Lock()
	next := cs.distVersion + 1
	e.installBase(cs, next, cs.bases[cs.distVersion].bytes, e.cfg.Now())
	cs.mu.Unlock()
	newer := HeldBase{ClassID: held.ClassID, Version: next}

	if _, _, replayed := serveDelta(t, e, site, newer, "user-b", 1); replayed != 0 {
		t.Errorf("first encode against v%d replayed %d bytes: a v%d hint crossed versions", next, replayed, held.Version)
	}
	if _, _, replayed := serveDelta(t, e, site, newer, "user-c", 1); replayed == 0 {
		t.Error("second encode against the new version replayed nothing")
	}
	if _, _, replayed := serveDelta(t, e, site, held, "user-d", 1); replayed == 0 {
		t.Errorf("v%d's own hint was lost when v%d installed", held.Version, next)
	}
}
