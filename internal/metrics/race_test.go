package metrics

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentRegistryStress hammers lookup-or-create on every metric kind
// together with Observe, Quantile, Snapshot and Expose scrapes. Run under
// -race (CI does) this is the evidence that a stats scrape can never corrupt
// — or deadlock against — the serving hot path.
func TestConcurrentRegistryStress(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector(func(c *Collection) {
		c.Gauge("from_collector", "", []Label{{"k", "v"}}, 1)
	})
	const (
		goroutines = 8
		iters      = 400
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Names are unique per metric kind: the exposition format
				// forbids one name carrying two TYPEs.
				r.Counter(fmt.Sprintf("c%d", i%5)).Inc()
				h := r.Histogram(fmt.Sprintf("h%d", i%5), 0.01, 0.1, 1)
				h.Observe(float64(i%100) / 50)
				r.HistogramFamily("fam_seconds", "", []string{"worker"}, 0.01, 1).
					With(fmt.Sprintf("w%d", g%3)).Observe(float64(i) / 1000)
				switch i % 4 {
				case 0:
					_ = h.Quantile(0.99)
				case 1:
					_ = r.Snapshot()
				case 2:
					_ = r.Expose(io.Discard)
				case 3:
					_, _ = h.Buckets()
					_ = h.Mean()
				}
			}
		}(g)
	}
	wg.Wait()

	var b strings.Builder
	if err := r.Expose(&b); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("post-stress exposition does not parse: %v", err)
	}
	// Every increment must be accounted for: counters are never lost.
	var total float64
	for _, s := range exp.Samples {
		if strings.HasPrefix(s.Name, "c") {
			total += s.Value
		}
	}
	if want := float64(goroutines * iters); total != want {
		t.Errorf("counters c0..c4 sum to %v, want %v", total, want)
	}
}
