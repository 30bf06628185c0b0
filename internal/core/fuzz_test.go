package core

import (
	"bytes"
	"testing"

	"cbde/internal/gzipx"
	"cbde/internal/vcdiff"
	"cbde/internal/vdelta"
)

// FuzzEngineDecode hardens the client-facing decode path — gzip unwrap plus
// vdelta decode — against arbitrary response payloads: it must return an
// error or a document, never panic, whatever bytes a hostile or corrupt
// delta-server hands a client. Seeds cover valid payloads, gzipped and
// plain, truncations and another format's payloads.
func FuzzEngineDecode(f *testing.F) {
	e, err := NewEngine(Config{})
	if err != nil {
		f.Fatal(err)
	}
	base := []byte("the quick brown fox jumps over the lazy dog; the quick brown fox again")
	target := []byte("the quick brown fox vaults over the lazy dog; and the fox once more")
	vd, err := vdelta.Encode(base, target)
	if err != nil {
		f.Fatal(err)
	}
	// Another format's payload (RFC 3284 VCDIFF), as a misrouted response.
	vc, err := vcdiff.Encode(base, target)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(base, vd, false)
	f.Add(base, gzipx.Compress(vd), true)
	f.Add(base, vc, false)
	f.Add(base, gzipx.Compress(vc), true)
	f.Add([]byte{}, []byte{}, false)
	f.Add(base, vd[:len(vd)/2], false)
	f.Add(base, vc[:len(vc)/2], false)
	f.Add(base, gzipx.Compress(vd), false) // gzip bytes decoded as raw delta

	f.Fuzz(func(t *testing.T, base, payload []byte, gzipped bool) {
		doc, err := e.Decode(base, payload, gzipped)
		if err != nil && doc != nil {
			t.Fatalf("Decode returned both a document (%d bytes) and error %v", len(doc), err)
		}
	})
}

// FuzzEngineProcessRoundTrip feeds arbitrary documents and URLs through the
// full pipeline in classless mode (every URL delta-serves from its second
// request) and checks the fundamental serving property: whatever Process
// sends as a delta must reconstruct the document exactly.
func FuzzEngineProcessRoundTrip(f *testing.F) {
	f.Add("www.fuzz.com/a", []byte("first version of the document"), []byte("second version of the document"))
	f.Add("www.fuzz.com/a?q=1", []byte{}, []byte("grew from empty"))
	f.Add("www.fuzz.com/b", bytes.Repeat([]byte("na"), 300), bytes.Repeat([]byte("na"), 301))

	f.Fuzz(func(t *testing.T, url string, doc1, doc2 []byte) {
		if len(doc1) == 0 || len(doc2) == 0 {
			t.Skip("Process treats empty documents as absent")
		}
		e, err := NewEngine(Config{Mode: ModeClassless})
		if err != nil {
			t.Fatal(err)
		}
		first, err := e.Process(Request{URL: url, UserID: "u", Doc: doc1})
		if err != nil {
			t.Skip("unroutable URL") // partition errors are fine; nothing to check
		}
		if first.LatestVersion == 0 {
			t.Fatalf("classless mode did not distribute a base on first contact")
		}
		base, v, ok := e.LatestBase(first.ClassID)
		if !ok {
			t.Fatalf("LatestBase missing after LatestVersion=%d", first.LatestVersion)
		}
		resp, err := e.Process(Request{
			URL: url, UserID: "u", Doc: doc2,
			HaveClassID: first.ClassID, HaveVersion: v,
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Kind != KindDelta {
			return // oversized delta → full response; nothing to decode
		}
		got, err := e.DecodeAs(base, resp.Payload, resp.Gzipped, resp.Format)
		if err != nil {
			t.Fatalf("decode served delta: %v", err)
		}
		if !bytes.Equal(got, doc2) {
			t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(doc2))
		}
		// Differential: the engine encodes through the pooled reused-index
		// path (EncodeIndexedInto); it must agree byte-for-byte with an
		// independently built index and with the per-call Encode path, so a
		// pooling or index bug cannot hide behind a still-decodable delta.
		coder := vdelta.NewCoder()
		indexed, err := coder.EncodeIndexed(coder.NewIndex(base), doc2)
		if err != nil {
			t.Fatalf("EncodeIndexed: %v", err)
		}
		plain, err := coder.Encode(base, doc2)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		if !bytes.Equal(indexed, plain) {
			t.Fatalf("EncodeIndexed differs from Encode (%d vs %d bytes)", len(indexed), len(plain))
		}
		if resp.Format == FormatVdelta {
			served := resp.Payload
			if resp.Gzipped {
				if served, err = gzipx.Decompress(resp.Payload); err != nil {
					t.Fatalf("decompress served delta: %v", err)
				}
			}
			if !bytes.Equal(served, indexed) {
				t.Fatalf("served delta differs from independent flat-index encode (%d vs %d bytes)",
					len(served), len(indexed))
			}
		}

		// Second pass under a tiny memory budget, so eviction churn runs on
		// every fuzz input: whatever the sweep does between the two requests,
		// a delta response must still reconstruct the document exactly, and
		// a degraded class must answer full — never error.
		be, err := NewEngine(Config{Mode: ModeClassless, MemBudget: 1})
		if err != nil {
			t.Fatal(err)
		}
		bfirst, err := be.Process(Request{URL: url, UserID: "u", Doc: doc1})
		if err != nil {
			t.Fatal(err) // the URL routed above; the budget must not change that
		}
		breq := Request{URL: url, UserID: "u", Doc: doc2, HaveClassID: bfirst.ClassID}
		var bbase []byte
		if b, v, ok := be.LatestBase(bfirst.ClassID); ok {
			bbase, breq.HaveVersion = b, v
		}
		bresp, err := be.Process(breq)
		if err != nil {
			t.Fatal(err)
		}
		if bresp.Kind == KindDelta {
			got, err := be.DecodeAs(bbase, bresp.Payload, bresp.Gzipped, bresp.Format)
			if err != nil {
				t.Fatalf("decode budgeted delta: %v", err)
			}
			if !bytes.Equal(got, doc2) {
				t.Fatalf("budgeted round trip mismatch: got %d bytes, want %d", len(got), len(doc2))
			}
		}
	})
}

// FuzzEngineProcessMemoized hardens the memoization layer with arbitrary
// documents: the same request repeated must answer identically (the second
// serve comes from — or refills — the memo cache), a caching engine must
// agree byte-for-byte with a cache-off engine, and every served delta must
// reconstruct the document exactly. Seeds cover the coalescing and
// invalidation edges: identical documents (empty delta), far-apart
// documents (oversized delta → rebase purges the cache mid-sequence), and
// single-byte flips.
func FuzzEngineProcessMemoized(f *testing.F) {
	f.Add("www.fuzz.com/m", []byte("first version of the document"), []byte("second version of the document"))
	f.Add("www.fuzz.com/m", []byte("identical bytes"), []byte("identical bytes"))
	f.Add("www.fuzz.com/m?q=1", []byte{1}, []byte{2})
	// Far-apart documents: the delta is oversized, so the repeat crosses a
	// basic-rebase invalidation barrier.
	f.Add("www.fuzz.com/r", bytes.Repeat([]byte{0xA7, 0x03, 0xFF, 0x5C}, 300), bytes.Repeat([]byte("zq"), 600))
	f.Add("www.fuzz.com/n", bytes.Repeat([]byte("na"), 300), bytes.Repeat([]byte("na"), 301))

	f.Fuzz(func(t *testing.T, url string, doc1, doc2 []byte) {
		if len(doc1) == 0 || len(doc2) == 0 {
			t.Skip("Process treats empty documents as absent")
		}
		cached, err := NewEngine(Config{Mode: ModeClassless})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := NewEngine(Config{Mode: ModeClassless, DeltaCacheOff: true})
		if err != nil {
			t.Fatal(err)
		}

		// drive runs first(doc1) then doc2 twice against the same held
		// version; on the caching engine the repeat is the memoized serve
		// (or a re-lead across an invalidation barrier — both must be
		// correct). Every delta is round-trip-verified.
		drive := func(e *Engine) (a, b Response, ok bool) {
			first, err := e.Process(Request{URL: url, UserID: "u", Doc: doc1})
			if err != nil {
				return a, b, false // unroutable URL; nothing to check
			}
			base, v, ok := e.LatestBase(first.ClassID)
			if !ok {
				t.Fatalf("LatestBase missing after first contact (LatestVersion=%d)", first.LatestVersion)
			}
			req := Request{
				URL: url, UserID: "u", Doc: doc2,
				HaveClassID: first.ClassID, HaveVersion: v,
			}
			for i, rp := range []*Response{&a, &b} {
				resp, err := e.Process(req)
				if err != nil {
					t.Fatal(err)
				}
				if resp.Kind == KindDelta {
					if resp.BaseVersion != v {
						t.Fatalf("pass %d: delta against version %d, client holds %d", i, resp.BaseVersion, v)
					}
					got, err := e.DecodeAs(base, resp.Payload, resp.Gzipped, resp.Format)
					if err != nil {
						t.Fatalf("pass %d: decode served delta: %v", i, err)
					}
					if !bytes.Equal(got, doc2) {
						t.Fatalf("pass %d: round trip mismatch: got %d bytes, want %d", i, len(got), len(doc2))
					}
				}
				*rp = resp
			}
			return a, b, true
		}

		ca, cb, ok := drive(cached)
		if !ok {
			return
		}
		pa, _, ok := drive(plain)
		if !ok {
			t.Fatal("URL routed on the caching engine but not the plain one")
		}

		// The repeat must answer like the original: the encode is
		// deterministic, so a memoized serve and a re-encode must be
		// indistinguishable on the wire.
		if ca.Kind != cb.Kind {
			t.Fatalf("repeat changed the response kind: %v then %v", ca.Kind, cb.Kind)
		}
		if ca.Kind == KindDelta {
			if !bytes.Equal(ca.Payload, cb.Payload) || ca.Gzipped != cb.Gzipped {
				t.Fatalf("repeat payload differs from the original (%d vs %d bytes)", len(cb.Payload), len(ca.Payload))
			}
		}
		// Caching on vs off must be invisible on the wire.
		if ca.Kind != pa.Kind {
			t.Fatalf("cache-on kind %v != cache-off kind %v", ca.Kind, pa.Kind)
		}
		if ca.Kind == KindDelta && !bytes.Equal(ca.Payload, pa.Payload) {
			t.Fatalf("cache-on payload differs from cache-off (%d vs %d bytes)", len(ca.Payload), len(pa.Payload))
		}

		// Cross an install barrier (the doc2 passes may have rebased) and
		// verify the cache still serves decodable deltas against whatever
		// base is then live.
		if base, v, ok := cached.LatestBase(ca.ClassID); ok {
			resp, err := cached.Process(Request{
				URL: url, UserID: "u", Doc: doc1,
				HaveClassID: ca.ClassID, HaveVersion: v,
			})
			if err != nil {
				t.Fatal(err)
			}
			if resp.Kind == KindDelta {
				got, err := cached.DecodeAs(base, resp.Payload, resp.Gzipped, resp.Format)
				if err != nil {
					t.Fatalf("decode post-barrier delta: %v", err)
				}
				if !bytes.Equal(got, doc1) {
					t.Fatalf("post-barrier round trip mismatch: got %d bytes, want %d", len(got), len(doc1))
				}
			}
		}
	})
}
