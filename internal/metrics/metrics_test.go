package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero value = %d, want 0", c.Value())
	}
	c.Inc()
	c.Add(5)
	c.Add(-3) // ignored: counters are monotone
	if got := c.Value(); got != 6 {
		t.Errorf("Value() = %d, want 6", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 16000 {
		t.Errorf("Value() = %d, want 16000", got)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(1, 10, 100)
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Errorf("Count() = %d, want 4", h.Count())
	}
	if got, want := h.Sum(), 555.5; math.Abs(got-want) > 1e-9 {
		t.Errorf("Sum() = %v, want %v", got, want)
	}
	if got, want := h.Mean(), 555.5/4; math.Abs(got-want) > 1e-9 {
		t.Errorf("Mean() = %v, want %v", got, want)
	}
	if h.Min() != 0.5 || h.Max() != 500 {
		t.Errorf("Min/Max = %v/%v, want 0.5/500", h.Min(), h.Max())
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("Buckets() lens = %d,%d, want 3,4", len(bounds), len(counts))
	}
	for i, want := range []int64{1, 1, 1, 1} {
		if counts[i] != want {
			t.Errorf("bucket %d = %d, want %d", i, counts[i], want)
		}
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(1)
	if h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(100)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	if q := h.Quantile(0.5); q < 45 || q > 56 {
		t.Errorf("median = %v, want ~50", q)
	}
	if q := h.Quantile(0); q != 1 {
		t.Errorf("q0 = %v, want 1", q)
	}
	if q := h.Quantile(1); q != 100 {
		t.Errorf("q1 = %v, want 100", q)
	}
}

func TestHistogramReservoirOverflow(t *testing.T) {
	h := NewHistogram(10)
	for i := 0; i < histReservoirSize*3; i++ {
		h.Observe(7)
	}
	if q := h.Quantile(0.5); q != 7 {
		t.Errorf("median after overflow = %v, want 7", q)
	}
	if h.Count() != int64(histReservoirSize*3) {
		t.Errorf("Count = %d", h.Count())
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs").Add(3)
	if got := r.Counter("reqs").Value(); got != 3 {
		t.Errorf("same counter not returned: %d", got)
	}
	r.Histogram("lat", 1, 10).Observe(2)

	snap := r.Snapshot()
	for _, want := range []string{"counter reqs 3", "histogram lat count=1"} {
		if !strings.Contains(snap, want) {
			t.Errorf("Snapshot missing %q:\n%s", want, snap)
		}
	}
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("c").Inc()
				r.Histogram("h", 1).Observe(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 4000 {
		t.Errorf("counter = %d, want 4000", got)
	}
}
