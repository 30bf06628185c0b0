// Prometheus text exposition (version 0.0.4) for a Registry: what a real
// scraper ingests from /_cbde/metrics. Only the standard library is used;
// the format rules implemented here are the exposition-format ones that
// matter for correct parsing — metric-name sanitization, label-value
// escaping, the _bucket/_sum/_count histogram convention with a cumulative
// +Inf bucket, and one # HELP/# TYPE header per family.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ExpositionContentType is the Content-Type an HTTP handler should serve
// Expose output under.
const ExpositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// SanitizeName maps an arbitrary metric name onto the exposition-format
// charset [a-zA-Z_:][a-zA-Z0-9_:]*. Invalid runes become '_' (the registry's
// dotted names, e.g. "classify.probes", become "classify_probes"); a name
// starting with a digit gains a '_' prefix.
func SanitizeName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double-quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// escapeHelp escapes a HELP text: backslash and newline.
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	return r.Replace(v)
}

// formatValue renders a sample value. Prometheus accepts Go's 'g' formatting
// including "+Inf", "-Inf" and "NaN".
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return strconv.FormatFloat(v, 'g', -1, 64)
	}
}

// formatLabels renders a {name="value",...} block, or "" for no labels.
func formatLabels(names, values []string, extra ...Label) string {
	if len(names) == 0 && len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	emit := func(n, v string) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(SanitizeName(n))
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(v))
		b.WriteByte('"')
	}
	for i, n := range names {
		emit(n, values[i])
	}
	for _, l := range extra {
		emit(l.Name, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// Collection receives samples from registered collectors during Expose.
type Collection struct {
	samples []collectedSample
}

type collectedSample struct {
	name   string
	help   string
	typ    string
	labels []Label
	value  float64
}

// Counter contributes one counter-typed sample.
func (c *Collection) Counter(name, help string, labels []Label, value float64) {
	c.samples = append(c.samples, collectedSample{name, help, "counter", labels, value})
}

// Gauge contributes one gauge-typed sample.
func (c *Collection) Gauge(name, help string, labels []Label, value float64) {
	c.samples = append(c.samples, collectedSample{name, help, "gauge", labels, value})
}

// Expose writes every metric in the registry — plain counters and
// histograms, labeled histogram families, and collector-contributed samples
// — as Prometheus text exposition. Families are emitted in sorted name
// order and children in sorted label order, so output is stable and
// diffable.
//
// The registry does not police name collisions across metric kinds, but the
// exposition format forbids one name carrying two TYPE declarations; use
// each (sanitized) name for exactly one kind.
func (r *Registry) Expose(w io.Writer) error {
	ew := &errWriter{w: w}

	r.mu.RLock()
	counters := sortedKeys(r.counters)
	histograms := sortedKeys(r.histograms)
	histFams := sortedKeys(r.histFams)
	collectors := make([]func(*Collection), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.RUnlock()

	for _, name := range counters {
		n := SanitizeName(name)
		fmt.Fprintf(ew, "# TYPE %s counter\n%s %d\n", n, n, r.Counter(name).Value())
	}
	for _, name := range histograms {
		n := SanitizeName(name)
		h := r.Histogram(name)
		writeHistogram(ew, n, "", nil, nil, h)
		writeHeader(ew, n+"_quantile", "", "gauge")
		writeHistogramQuantiles(ew, n, nil, nil, h)
	}

	for _, name := range histFams {
		f := r.HistogramFamily(name, "", nil)
		n := SanitizeName(f.name)
		writeHeader(ew, n, f.help, "histogram")
		f.each(func(values []string, h *Histogram) {
			writeHistogramSamples(ew, n, f.labelNames, values, h)
		})
		// The quantile companion is its own gauge-typed family (a
		// histogram family's TYPE cannot also cover summary-style
		// quantile samples), emitted in a second pass so its children
		// stay contiguous under one header.
		writeHeader(ew, n+"_quantile", "", "gauge")
		f.each(func(values []string, h *Histogram) {
			writeHistogramQuantiles(ew, n, f.labelNames, values, h)
		})
	}

	if len(collectors) > 0 {
		col := &Collection{}
		for _, fn := range collectors {
			fn(col)
		}
		writeCollected(ew, col.samples)
	}
	return ew.err
}

// writeHeader emits the # HELP / # TYPE preamble for one family.
func writeHeader(w io.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// writeHistogram emits a full single histogram (header plus samples).
func writeHistogram(w io.Writer, name, help string, labelNames, labelValues []string, h *Histogram) {
	writeHeader(w, name, help, "histogram")
	writeHistogramSamples(w, name, labelNames, labelValues, h)
}

// writeHistogramSamples emits the _bucket/_sum/_count series for one
// histogram child. Bucket counts are cumulative, ending in the +Inf bucket
// that by convention equals _count. Buckets that recorded an exemplar get
// an OpenMetrics-style " # {trace_id=...} value ts" suffix — a deliberate
// extension of the 0.0.4 text format (see DESIGN.md §15) that this repo's
// own parser accepts and validates.
func writeHistogramSamples(w io.Writer, name string, labelNames, labelValues []string, h *Histogram) {
	bounds, counts := h.Buckets()
	exemplars := h.Exemplars()
	var cum int64
	for i, ub := range bounds {
		cum += counts[i]
		le := Label{Name: "le", Value: formatValue(ub)}
		fmt.Fprintf(w, "%s_bucket%s %d%s\n", name, formatLabels(labelNames, labelValues, le), cum, exemplarSuffix(exemplars, i))
	}
	cum += counts[len(counts)-1]
	inf := Label{Name: "le", Value: "+Inf"}
	fmt.Fprintf(w, "%s_bucket%s %d%s\n", name, formatLabels(labelNames, labelValues, inf), cum, exemplarSuffix(exemplars, len(bounds)))
	fmt.Fprintf(w, "%s_sum%s %s\n", name, formatLabels(labelNames, labelValues), formatValue(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", name, formatLabels(labelNames, labelValues), h.Count())
}

// exemplarSuffix renders one bucket's exemplar annotation, or "" when the
// bucket (or the whole histogram) has none.
func exemplarSuffix(exemplars []Exemplar, i int) string {
	if i >= len(exemplars) || !exemplars[i].Valid {
		return ""
	}
	ex := exemplars[i]
	return fmt.Sprintf(" # {trace_id=\"%016x%016x\"} %s %d", ex.TraceHi, ex.TraceLo, formatValue(ex.Value), ex.Timestamp)
}

// exposedQuantiles are the quantile estimates published alongside every
// histogram as a companion gauge family <name>_quantile, in the summary
// convention's label form: {quantile="0.5"|"0.9"|"0.99"}.
var exposedQuantiles = []float64{0.5, 0.9, 0.99}

// writeHistogramQuantiles emits one histogram child's reservoir-estimated
// quantiles as <name>_quantile samples. All estimates share one reservoir
// copy and sort.
func writeHistogramQuantiles(w io.Writer, name string, labelNames, labelValues []string, h *Histogram) {
	vals := h.Quantiles(exposedQuantiles...)
	for i, q := range exposedQuantiles {
		ql := Label{Name: "quantile", Value: formatValue(q)}
		fmt.Fprintf(w, "%s_quantile%s %s\n", name, formatLabels(labelNames, labelValues, ql), formatValue(vals[i]))
	}
}

// writeCollected groups collector samples by metric name so each family gets
// exactly one # TYPE header, then emits them in sorted order.
func writeCollected(w io.Writer, samples []collectedSample) {
	byName := make(map[string][]collectedSample)
	var names []string
	for _, s := range samples {
		key := SanitizeName(s.name)
		if _, ok := byName[key]; !ok {
			names = append(names, key)
		}
		byName[key] = append(byName[key], s)
	}
	sort.Strings(names)
	for _, n := range names {
		group := byName[n]
		writeHeader(w, n, group[0].help, group[0].typ)
		sort.Slice(group, func(i, j int) bool {
			return labelString(group[i].labels) < labelString(group[j].labels)
		})
		for _, s := range group {
			fmt.Fprintf(w, "%s%s %s\n", n, formatLabels(nil, nil, s.labels...), formatValue(s.value))
		}
	}
}

func labelString(labels []Label) string {
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Name + "\x1f" + l.Value
	}
	return strings.Join(parts, "\x1f")
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// errWriter latches the first write error so format code stays linear.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return len(p), nil
	}
	n, err := ew.w.Write(p)
	if err != nil {
		ew.err = err
	}
	return n, nil
}
