package core

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"cbde/internal/anonymize"
	"cbde/internal/basefile"
)

// TestAnonymizationRoundsConcurrent runs 8 clients of distinct users on one class
// through many anonymization rounds — started by group rebases and by
// re-warms after concurrent forced evictions — while the comparisons run
// outside the class lock. Every round installs at most once (completions
// equal installs, and the base ledger equals the resident bases, which a
// second install of one version would break), no install moves the
// distributable version backwards or installs a version the class is not
// anonymizing, and every delta reconstructs byte-exact.
func TestAnonymizationRoundsConcurrent(t *testing.T) {
	const (
		goroutines = 8
		perClient  = 150
	)
	e := newTestEngine(t, Config{
		Anon:       anonymize.Config{M: 1, N: 3},
		GraphDepth: 4,
		Selector:   basefile.Config{SampleProb: 0.3, MaxSamples: 4, Seed: 3, RebaseTimeout: 40 * time.Second},
	})
	defer e.Close()
	const url = "www.shop.com/laptops/0"
	warm, err := e.Process(Request{URL: url, UserID: "warm", Doc: renderDoc("laptops", 0, 0, "warm")})
	if err != nil {
		t.Fatal(err)
	}
	cs, _ := e.lookup(warm.ClassID)
	startCompleted := e.ctr.anonCompleted.Value()
	startInstalled := e.ctr.basesInstalled.Value()

	done := make(chan struct{})
	var side sync.WaitGroup
	side.Add(1)
	go func() {
		// Watches the class between requests: the distributable version
		// only drops to 0 (an eviction) and never below an earlier one
		// otherwise, and only versions up to it are resident.
		defer side.Done()
		highest := 0
		for {
			select {
			case <-done:
				return
			default:
			}
			cs.mu.RLock()
			v := cs.distVersion
			for have := range cs.bases {
				if have <= 0 || have > v {
					t.Errorf("resident base version %d with distVersion %d", have, v)
				}
			}
			cs.mu.RUnlock()
			if v != 0 && v < highest {
				t.Errorf("distVersion went backwards: %d after %d", v, highest)
				return
			}
			highest = max(highest, v)
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var held heldBase
			for i := 0; i < perClient; i++ {
				// Each client cycles through users of its own, so rounds
				// complete however the scheduler interleaves the clients.
				user := fmt.Sprintf("user-%d-%d", g, i%4)
				doc := renderDoc("laptops", 0, i/3, user)
				req := Request{URL: url, UserID: user, Doc: doc}
				if held.version > 0 {
					req.Held = []HeldBase{{ClassID: cs.id, Version: held.version}}
				}
				resp, err := e.Process(req)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Kind == KindDelta {
					got, err := e.DecodeAs(held.base, resp.Payload, resp.Gzipped, resp.Format)
					if err != nil || !bytes.Equal(got, doc) {
						t.Errorf("%s: delta against v%d does not reconstruct (%v)", user, resp.BaseVersion, err)
						return
					}
				}
				if i%40 == 39 {
					e.EvictClass(cs.id)
				}
				if resp.LatestVersion > held.version {
					if base, v, ok := e.LatestBase(cs.id); ok {
						held = heldBase{version: v, base: base}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	side.Wait()

	completed := e.ctr.anonCompleted.Value() - startCompleted
	installed := e.ctr.basesInstalled.Value() - startInstalled
	if completed != installed {
		t.Errorf("%d anonymization completions, %d installs", completed, installed)
	}
	t.Logf("%d rounds, %d group rebases", completed, e.ctr.rebaseGroup.Value())
	if completed < 20 {
		t.Errorf("only %d anonymization rounds completed, want >= 20", completed)
	}
	cs.mu.RLock()
	var resident int64
	for _, bv := range cs.bases {
		resident += int64(len(bv.bytes))
	}
	ledger := cs.res.Usage().BaseBytes
	cs.mu.RUnlock()
	if ledger != resident {
		t.Errorf("base ledger %d bytes, resident bases %d: an install was counted twice", ledger, resident)
	}
}

// TestAnonymizationInstallRevalidates stages the interleavings the unlocked
// comparison opens: while a process's last comparison runs, its class is
// evicted, or a basic rebase supersedes it with a newer base. Its
// finishAnonymization must then install nothing; the superseding process
// installs its own version once.
func TestAnonymizationInstallRevalidates(t *testing.T) {
	for _, tc := range []string{"evicted", "superseded"} {
		t.Run(tc, func(t *testing.T) {
			e := newTestEngine(t, Config{Anon: anonymize.Config{M: 1, N: 1}})
			defer e.Close()
			const url = "www.shop.com/laptops/0"
			resp, err := e.Process(Request{URL: url, UserID: "owner", Doc: renderDoc("laptops", 0, 0, "owner")})
			if err != nil {
				t.Fatal(err)
			}
			cs, _ := e.lookup(resp.ClassID)
			now := e.cfg.Now()

			req := Request{URL: url, UserID: "u1", Doc: renderDoc("laptops", 0, 1, "u1")}
			cs.mu.Lock()
			proc := e.advanceAnonymization(cs, req, now)
			cs.mu.Unlock()
			if proc == nil {
				t.Fatal("advanceAnonymization returned no process for a new user")
			}
			proc.Compare(req.Doc, req.UserID)
			switch tc {
			case "evicted":
				e.EvictClass(cs.id)
			case "superseded":
				rebase := Request{URL: url, UserID: "u2", Doc: renderDoc("laptops", 0, 2, "u2")}
				e.basicRebase(cs, encodeSnapshot{}, rebase, now)
			}
			cs.mu.Lock()
			e.finishAnonymization(cs, proc, now)
			dist, source := cs.distVersion, cs.anonSource
			cs.mu.Unlock()
			if dist != 0 || e.ctr.basesInstalled.Value() != 0 || e.ctr.anonCompleted.Value() != 0 {
				t.Fatalf("%s process installed: distVersion %d, %d installs, %d completions",
					tc, dist, e.ctr.basesInstalled.Value(), e.ctr.anonCompleted.Value())
			}
			if tc == "evicted" {
				return
			}

			// The superseding process completes with its own comparison.
			req = Request{URL: url, UserID: "u3", Doc: renderDoc("laptops", 0, 3, "u3")}
			cs.mu.Lock()
			next := e.advanceAnonymization(cs, req, now)
			cs.mu.Unlock()
			if next == nil || next == proc {
				t.Fatal("no fresh process after the basic rebase")
			}
			next.Compare(req.Doc, req.UserID)
			for i := 0; i < 2; i++ { // a second finisher installs nothing
				cs.mu.Lock()
				e.finishAnonymization(cs, next, now)
				cs.mu.Unlock()
			}
			if cs.distVersion != source || e.ctr.basesInstalled.Value() != 1 || e.ctr.anonCompleted.Value() != 1 {
				t.Errorf("after the superseding round: distVersion %d (want %d), %d installs, %d completions; want 1, 1",
					cs.distVersion, source, e.ctr.basesInstalled.Value(), e.ctr.anonCompleted.Value())
			}
		})
	}
}
