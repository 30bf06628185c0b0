package integration

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http/httptest"
	"sync"
	"testing"

	"cbde/internal/anonymize"
	"cbde/internal/basefile"
	"cbde/internal/core"
	"cbde/internal/deltaclient"
	"cbde/internal/proxycache"
)

// TestChaos interleaves everything that can happen in production — content
// churn, rebases, cold clients, cache forgets, bounded caches, concurrent
// access through a small proxy — and asserts the one invariant that may
// never break: every client always receives the byte-exact personalized
// document.
func TestChaos(t *testing.T) {
	c := newChain(t, core.Config{
		Anon:          anonymize.Config{M: 1, N: 2},
		MaxDeltaRatio: 0.4,
		Selector: basefile.Config{
			SampleProb: 0.5,
			MaxSamples: 4,
			Seed:       99,
		},
		GraphDepth: 2,
	})
	// A second, tightly constrained proxy: cache evictions occur mid-run
	// for the workers routed through it.
	smallProxy, err := proxycache.New(c.serverURL, proxycache.WithMaxBytes(64*1024))
	if err != nil {
		t.Fatal(err)
	}
	smallProxySrv := httptest.NewServer(smallProxy)
	t.Cleanup(smallProxySrv.Close)

	c.warm(t, "laptops", 5)
	c.warm(t, "desktops", 5)

	const workers = 6
	const steps = 60
	var wg sync.WaitGroup
	errs := make(chan error, workers*4)

	var tickMu sync.Mutex // serializes Advance vs Render(tick) pairs
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 1234))
			user := fmt.Sprintf("chaos-%d", w)
			opts := []deltaclient.Option{deltaclient.WithUser(user)}
			serverURL := c.proxyURL
			if w%3 == 2 {
				// Bounded browser cache, behind the eviction-prone proxy.
				opts = append(opts, deltaclient.WithMaxBaseBytes(20_000))
				serverURL = smallProxySrv.URL
			}
			cl := deltaclient.New(serverURL, opts...)

			for i := 0; i < steps; i++ {
				switch rng.IntN(10) {
				case 0:
					cl.Forget() // browser cache cleared
				case 1:
					tickMu.Lock()
					c.site.Advance(1) // content churns
					tickMu.Unlock()
				}
				dept := []string{"laptops", "desktops"}[rng.IntN(2)]
				item := rng.IntN(8)
				path := fmt.Sprintf("/%s/%d", dept, item)

				tickMu.Lock()
				doc, err := cl.Get(path)
				if err != nil {
					tickMu.Unlock()
					errs <- fmt.Errorf("worker %d step %d: %w", w, i, err)
					return
				}
				want, err := c.site.Render(dept, item, user, c.site.Tick())
				tickMu.Unlock()
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(doc, want) {
					errs <- fmt.Errorf("worker %d step %d: %s reconstruction mismatch (%d vs %d bytes)",
						w, i, path, len(doc), len(want))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	st := c.engine.Stats()
	if st.Requests == 0 || st.DeltaResponses == 0 {
		t.Errorf("chaos run produced no delta traffic: %+v", st)
	}
}
