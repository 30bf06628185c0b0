// Package metrics provides small, dependency-free counters and histograms
// used by the delta-server and the experiment harness, and a Registry that
// exposes them. State a component owns — per-class cells, cluster and
// flight-recorder counters — stays in atomics on its owner and reaches the
// exposition through a registered collector.
//
// All types are safe for concurrent use and have useful zero values where
// possible; Registry must be created with NewRegistry.
package metrics

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing counter. The zero value is ready to
// use.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta. Negative deltas are ignored so that a
// Counter remains monotone.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram accumulates observations into fixed buckets. Create one with
// NewHistogram.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // upper bounds, sorted ascending
	counts  []int64   // len(bounds)+1; last bucket is +Inf
	sum     float64
	n       int64
	min     float64
	max     float64
	samples []float64  // reservoir for quantile estimates
	rng     *rand.Rand // reservoir replacement; seeded so runs reproduce

	// exemplars holds the last trace-carrying observation per bucket
	// (len(counts) entries), allocated lazily by the first ObserveExemplar
	// so histograms that never see traced traffic pay nothing.
	exemplars []Exemplar
}

// Exemplar is the last traced observation that landed in a histogram
// bucket: the trace ID to look up, the observed value, and when it was
// recorded. The Prometheus exposition emits it after the bucket's sample
// (OpenMetrics-style), linking a latency bucket to a retrievable trace.
type Exemplar struct {
	// TraceHi and TraceLo are the halves of the 128-bit trace ID.
	TraceHi, TraceLo uint64
	// Value is the observed value that landed in the bucket.
	Value float64
	// Timestamp is the observation time, Unix seconds.
	Timestamp int64
	// Valid reports whether the bucket has recorded an exemplar at all.
	Valid bool
}

const histReservoirSize = 4096

// histSeed seeds every histogram's reservoir PRNG. A fixed seed keeps the
// experiment harness reproducible run-to-run while still giving each
// observation stream an unbiased uniform sample (unlike a slot derived from
// the running count, which correlates with periodic workloads).
const histSeed = 0x9E3779B97F4A7C15

// NewHistogram returns a histogram with the given ascending upper bucket
// bounds. An implicit +Inf bucket is appended.
func NewHistogram(bounds ...float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]int64, len(b)+1),
		min:    math.Inf(1),
		max:    math.Inf(-1),
		rng:    rand.New(rand.NewPCG(histSeed, uint64(len(b)))),
	}
}

// Observe records a single observation.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.observeLocked(v)
}

// ObserveExemplar records an observation and stamps its bucket with the
// observing request's 128-bit trace ID (hi/lo halves) and a Unix-seconds
// timestamp. Each bucket keeps only the most recent exemplar — enough to
// jump from "the p99 bucket grew" to one concrete retained trace.
func (h *Histogram) ObserveExemplar(v float64, traceHi, traceLo uint64, ts int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	idx := h.observeLocked(v)
	if h.exemplars == nil {
		h.exemplars = make([]Exemplar, len(h.counts))
	}
	h.exemplars[idx] = Exemplar{TraceHi: traceHi, TraceLo: traceLo, Value: v, Timestamp: ts, Valid: true}
}

// observeLocked does the shared bookkeeping and returns the bucket index
// the observation landed in. Callers hold h.mu.
func (h *Histogram) observeLocked(v float64) int {
	idx := sort.SearchFloat64s(h.bounds, v)
	h.counts[idx]++
	h.sum += v
	h.n++
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	if len(h.samples) < histReservoirSize {
		h.samples = append(h.samples, v)
	} else {
		// Algorithm R reservoir sampling: after n observations every one of
		// them had probability reservoirSize/n of being retained. The PRNG
		// is per-histogram and fixed-seeded, so runs stay reproducible.
		if j := h.rng.Int64N(h.n); j < histReservoirSize {
			h.samples[j] = v
		}
	}
	return idx
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.sum
}

// Mean returns the mean of all observations, or 0 if there are none.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// Min returns the smallest observation, or 0 if there are none.
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 if there are none.
func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an estimate of the q-th quantile (0 <= q <= 1) from the
// sample reservoir, or 0 if there are no observations.
//
// Only the reservoir copy happens under the histogram mutex; the O(n log n)
// sort and the interpolation run outside it, so hot-path Observe calls never
// stall behind a stats scrape.
func (h *Histogram) Quantile(q float64) float64 {
	return h.Quantiles(q)[0]
}

// Quantiles returns estimates for every requested quantile at once,
// sharing a single reservoir copy and sort across all of them — the
// exposition path asks for p50/p90/p99 together, and three Quantile calls
// would sort the reservoir three times. Returns all zeros if there are no
// observations.
func (h *Histogram) Quantiles(qs ...float64) []float64 {
	out := make([]float64, len(qs))
	h.mu.Lock()
	if len(h.samples) == 0 {
		h.mu.Unlock()
		return out
	}
	s := make([]float64, len(h.samples))
	copy(s, h.samples)
	h.mu.Unlock()
	sort.Float64s(s)
	for i, q := range qs {
		out[i] = quantileSorted(s, q)
	}
	return out
}

// quantileSorted interpolates the q-th quantile from an ascending-sorted,
// non-empty sample slice.
func quantileSorted(s []float64, q float64) float64 {
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	idx := q * float64(len(s)-1)
	lo := int(math.Floor(idx))
	hi := int(math.Ceil(idx))
	if lo == hi {
		return s[lo]
	}
	frac := idx - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Buckets returns a copy of the bucket upper bounds and counts. The final
// count is the +Inf bucket.
func (h *Histogram) Buckets() ([]float64, []int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := make([]float64, len(h.bounds))
	copy(b, h.bounds)
	c := make([]int64, len(h.counts))
	copy(c, h.counts)
	return b, c
}

// Exemplars returns a copy of the per-bucket exemplars, index-aligned with
// the counts slice from Buckets (last entry is the +Inf bucket). Nil when
// no exemplar was ever recorded.
func (h *Histogram) Exemplars() []Exemplar {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.exemplars == nil {
		return nil
	}
	out := make([]Exemplar, len(h.exemplars))
	copy(out, h.exemplars)
	return out
}

// Registry is a named collection of metrics. Create one with NewRegistry.
// Lookups of existing metrics (the overwhelmingly common case on a serving
// hot path) take only a read lock; creation re-checks under the write lock.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
	histFams   map[string]*HistogramFamily
	collectors []func(c *Collection)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
		histFams:   make(map[string]*HistogramFamily),
	}
}

// Counter returns the counter with the given name, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Histogram returns the histogram with the given name, creating it with the
// provided bounds on first use. Bounds are ignored for an existing histogram.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	r.mu.RLock()
	h, ok := r.histograms[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	h = NewHistogram(bounds...)
	r.histograms[name] = h
	return h
}

// Snapshot returns a sorted, human-readable dump of every metric, suitable
// for a stats endpoint or log line.
func (r *Registry) Snapshot() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var lines []string
	for name, c := range r.counters {
		lines = append(lines, fmt.Sprintf("counter %s %d", name, c.Value()))
	}
	for name, h := range r.histograms {
		qs := h.Quantiles(0.5, 0.99)
		lines = append(lines, fmt.Sprintf("histogram %s count=%d mean=%.3f min=%.3f max=%.3f p50=%.3f p99=%.3f",
			name, h.Count(), h.Mean(), h.Min(), h.Max(), qs[0], qs[1]))
	}
	for name, f := range r.histFams {
		f.each(func(values []string, h *Histogram) {
			qs := h.Quantiles(0.5, 0.99)
			lines = append(lines, fmt.Sprintf("histogram %s%s count=%d mean=%.3f p50=%.3f p99=%.3f",
				name, formatLabels(f.labelNames, values), h.Count(), h.Mean(), qs[0], qs[1]))
		})
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
