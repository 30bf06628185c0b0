package core

import (
	"bytes"
	"fmt"
	"testing"

	"cbde/internal/anonymize"
	"cbde/internal/basefile"
)

// TestProcessOnlyBorrowsDoc pins the contract on Request.Doc that the
// delta-server's pooled origin buffer rests on: every document arrives in the
// same buffer, and the buffer is overwritten the moment Process returns. If
// the engine kept a reference anywhere — a class's match base, the selector's
// base or a sampled candidate (sync or async), an anonymization source, a
// basic-rebase install, a memoized delta's input — a later delta would decode
// to garbage, a base-file would hold garbage, or URLs would be grouped
// against the wrong bytes.
func TestProcessOnlyBorrowsDoc(t *testing.T) {
	for _, tc := range []struct {
		name        string
		sample      float64 // selector's SampleProb
		async, anon bool
	}{
		{"sync selector, bases distributed directly", 1, false, false},
		{"async selector, bases distributed directly", 1, true, false},
		{"async selector, anonymized bases", 1, true, true},
		// Without sampling no group rebase restarts anonymization, so the
		// process a basic rebase starts from Request.Doc runs to completion.
		{"no sampling, anonymized bases", -1, false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(t, Config{
				DisableAnonymization: !tc.anon,
				Anon:                 anonymize.Config{M: 1, N: 2},
				Selector:             basefile.Config{SampleProb: tc.sample, MaxSamples: 4, AsyncSampling: tc.async, Seed: 1},
			})
			garbage := bytes.Repeat([]byte{0xAA}, 16)
			var wire []byte // the one buffer every request's document arrives in
			held := map[string]heldBase{}
			submitted := map[string]bool{}
			capable := true // whether the sender advertises and refreshes base-files
			send := func(url, user string, doc []byte) {
				t.Helper()
				wire = append(wire[:0], doc...)
				req := Request{URL: url, UserID: user, Doc: wire}
				for id, hb := range held {
					if capable {
						req.Held = append(req.Held, HeldBase{ClassID: id, Version: hb.version})
					}
				}
				resp, err := e.Process(req)
				for i := range wire {
					wire[i] = 0xAA
				}
				if err != nil {
					t.Fatal(err)
				}
				submitted[string(doc)] = true
				if resp.Kind == KindDelta {
					got, err := e.DecodeAs(held[resp.ClassID].base, resp.Payload, resp.Gzipped, resp.Format)
					if err != nil || !bytes.Equal(got, doc) {
						t.Fatalf("%s for %s: delta against v%d does not reproduce the document: %v", url, user, resp.BaseVersion, err)
					}
				}
				if capable && resp.LatestVersion > held[resp.ClassID].version {
					base, v, ok := e.LatestBase(resp.ClassID)
					if !ok {
						t.Fatalf("class %s announced v%d but has no base", resp.ClassID, resp.LatestVersion)
					}
					if bytes.Contains(base, garbage) {
						t.Fatalf("class %s v%d holds bytes of a reused request buffer", resp.ClassID, v)
					}
					if !tc.anon && !submitted[string(base)] {
						t.Fatalf("class %s v%d is not a document any request carried", resp.ClassID, v)
					}
					// An anonymization source aliasing the wire buffer is compared
					// with itself and strips nothing, or with garbage and strips all.
					if 2*len(base) < len(doc) {
						t.Fatalf("class %s v%d kept %d bytes of a %d-byte document", resp.ClassID, v, len(base), len(doc))
					}
					for u := 0; tc.anon && u < 5; u++ {
						if bytes.Contains(base, []byte(cardFor(fmt.Sprintf("user-%d", u)))) {
							t.Fatalf("class %s v%d distributes user-%d's card number", resp.ClassID, v, u)
						}
					}
					held[resp.ClassID] = heldBase{version: v, base: base}
				}
			}

			// First request of the class, then URLs probing its match base — an
			// unrelated document must not match (a match base aliasing the wire
			// buffer would compare it with itself), siblings must — then
			// anonymization rounds, sampled admissions and group rebases.
			for i := 0; i < 12; i++ {
				user := fmt.Sprintf("user-%d", i%5)
				send(fmt.Sprintf("www.shop.com/laptops/%d", i%3), user, renderDoc("laptops", i%3, i, user))
				if i == 0 {
					send("www.shop.com/laptops/9", "user-9", incompressible(99, 6000))
				}
			}
			// Memo miss, then hits: one shared document, same held base.
			shared := renderDoc("laptops", 1, 99, "")
			for i := 0; i < 4; i++ {
				send("www.shop.com/laptops/1", fmt.Sprintf("user-%d", i), shared)
			}
			// Basic rebase: the content jumps to an unrelated generation. Plain
			// browsers carry the traffic while the rebased base is anonymized
			// (a client still advertising the old base would rebase again on
			// every request), then delta-capable clients pick it up.
			gen := incompressible(7, 6000)
			genDoc := func(tick int, user string) []byte {
				return append(append([]byte(nil), gen...), fmt.Sprintf("<tick %d><account>%s; card %s</account>", tick, user, cardFor(user))...)
			}
			for i := 0; i < 10; i++ {
				user := fmt.Sprintf("user-%d", i%5)
				send("www.shop.com/laptops/2", user, genDoc(i, user))
				capable = i >= 5
			}
			e.Quiesce()
			deltasBefore := e.Stats().DeltaResponses
			for i := 0; i < 6; i++ {
				user := fmt.Sprintf("user-%d", i%5)
				send(fmt.Sprintf("www.shop.com/laptops/%d", i%3), user, genDoc(100+i, user))
			}

			st := e.Stats()
			if st.Classes != 2 {
				t.Errorf("%d classes, want the laptops class and the unrelated document's", st.Classes)
			}
			if st.BasicRebases == 0 || st.DeltaResponses == deltasBefore || e.DeltaCacheStats().Hits == 0 {
				t.Errorf("scenario did not run: %d basic rebases, %d deltas (%d before quiesce), %d memo hits",
					st.BasicRebases, st.DeltaResponses, deltasBefore, e.DeltaCacheStats().Hits)
			}
		})
	}
}
