// Labeled histogram families, keyed by label values, the shape the
// Prometheus exposition (expose.go) serves. Families are deliberately
// minimal — label names are fixed at creation, children are created on
// first use and never expire — because their label set (pipeline stage) is
// small and stable. Labeled counters and gauges are collector samples.
package metrics

import (
	"sort"
	"strings"
	"sync"
)

// Label is one name/value pair attached to a metric child.
type Label struct {
	Name  string
	Value string
}

// childKey joins label values into a map key. Values are length-prefixed by
// a separator unlikely to appear in label values; correctness does not
// depend on it (a collision only merges two children's accounting).
func childKey(values []string) string {
	return strings.Join(values, "\x1f")
}

// HistogramFamily is a set of Histograms sharing bucket bounds,
// distinguished by label values. Create one with Registry.HistogramFamily.
type HistogramFamily struct {
	name       string
	help       string
	labelNames []string
	bounds     []float64

	mu       sync.RWMutex
	children map[string]*histChild
}

type histChild struct {
	labelValues []string
	h           *Histogram
}

// With returns the histogram for the given label values, creating it (with
// the family's bounds) on first use. Panics on a label-count mismatch.
func (f *HistogramFamily) With(labelValues ...string) *Histogram {
	if len(labelValues) != len(f.labelNames) {
		panic("metrics: HistogramFamily " + f.name + ": wrong number of label values")
	}
	key := childKey(labelValues)
	f.mu.RLock()
	ch, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return ch.h
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok := f.children[key]; ok {
		return ch.h
	}
	ch = &histChild{
		labelValues: append([]string(nil), labelValues...),
		h:           NewHistogram(f.bounds...),
	}
	f.children[key] = ch
	return ch.h
}

// Name returns the family's metric name.
func (f *HistogramFamily) Name() string { return f.name }

func (f *HistogramFamily) each(fn func(labelValues []string, h *Histogram)) {
	f.mu.RLock()
	children := make([]*histChild, 0, len(f.children))
	for _, ch := range f.children {
		children = append(children, ch)
	}
	f.mu.RUnlock()
	sort.Slice(children, func(i, j int) bool {
		return childKey(children[i].labelValues) < childKey(children[j].labelValues)
	})
	for _, ch := range children {
		fn(ch.labelValues, ch.h)
	}
}

// HistogramFamily returns the labeled histogram family with the given name,
// creating it with the provided bucket bounds on first use. Bounds are
// ignored for an existing family.
func (r *Registry) HistogramFamily(name, help string, labelNames []string, bounds ...float64) *HistogramFamily {
	r.mu.RLock()
	f, ok := r.histFams[name]
	r.mu.RUnlock()
	if ok {
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.histFams[name]; ok {
		return f
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	f = &HistogramFamily{
		name:       name,
		help:       help,
		labelNames: append([]string(nil), labelNames...),
		bounds:     b,
		children:   make(map[string]*histChild),
	}
	r.histFams[name] = f
	return f
}

// RegisterCollector adds a callback invoked at every Expose to contribute
// computed samples (values derived from live state rather than accumulated
// in the registry, e.g. base-file ages). Collectors run in registration
// order.
func (r *Registry) RegisterCollector(fn func(c *Collection)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}
