package metrics

import (
	"math"
	"strings"
	"testing"
)

func TestSanitizeName(t *testing.T) {
	cases := map[string]string{
		"requests":      "requests",
		"bytes.direct":  "bytes_direct",
		"a-b c":         "a_b_c",
		"9lives":        "_9lives",
		"":              "_",
		"cbde:ok_Name2": "cbde:ok_Name2",
	}
	for in, want := range cases {
		if got := SanitizeName(in); got != want {
			t.Errorf("SanitizeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestExposeBasicMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests").Add(7)
	r.Counter("bytes.direct").Add(1234)
	h := r.Histogram("latency", 0.01, 0.1, 1)
	h.Observe(0.005)
	h.Observe(0.05)
	h.Observe(5)

	var b strings.Builder
	if err := r.Expose(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE requests counter\nrequests 7\n",
		"# TYPE bytes_direct counter\nbytes_direct 1234\n",
		"# TYPE latency histogram\n",
		`latency_bucket{le="0.01"} 1`,
		`latency_bucket{le="0.1"} 2`,
		`latency_bucket{le="1"} 2`,
		`latency_bucket{le="+Inf"} 3`,
		"latency_sum 5.055\n",
		"latency_count 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestExposeFamiliesAndEscaping(t *testing.T) {
	r := NewRegistry()
	r.RegisterCollector(func(c *Collection) {
		c.Counter("cbde_class_requests_total", "Requests per class.", []Label{{"class", `evil"class\with` + "\n" + `newline`}}, 2)
		c.Counter("cbde_class_requests_total", "", []Label{{"class", "plain"}}, 5)
		c.Gauge("cbde_class_base_version", "Current base version.", []Label{{"class", "plain"}}, 4)
	})
	hf := r.HistogramFamily("cbde_stage_seconds", "Per-stage latency.", []string{"stage"}, 0.001, 0.01)
	hf.With("encode").Observe(0.002)

	var b strings.Builder
	if err := r.Expose(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP cbde_class_requests_total Requests per class.\n# TYPE cbde_class_requests_total counter\n",
		`cbde_class_requests_total{class="evil\"class\\with\nnewline"} 2`,
		`cbde_class_requests_total{class="plain"} 5`,
		`cbde_class_base_version{class="plain"} 4`,
		"# TYPE cbde_stage_seconds histogram\n",
		`cbde_stage_seconds_bucket{stage="encode",le="0.01"} 1`,
		`cbde_stage_seconds_bucket{stage="encode",le="+Inf"} 1`,
		`cbde_stage_seconds_sum{stage="encode"} 0.002`,
		`cbde_stage_seconds_count{stage="encode"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestExposeCollectors(t *testing.T) {
	r := NewRegistry()
	r.Counter("seed").Inc() // a parseable doc needs at least one sample anyway
	r.RegisterCollector(func(c *Collection) {
		c.Gauge("cbde_class_base_age_seconds", "Age of the base.", []Label{{"class", "a"}}, 12.5)
		c.Gauge("cbde_class_base_age_seconds", "", []Label{{"class", "b"}}, 3)
		c.Counter("cbde_bytes_saved_total", "Bytes saved.", nil, 999)
	})
	var b strings.Builder
	if err := r.Expose(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE cbde_class_base_age_seconds gauge\n",
		`cbde_class_base_age_seconds{class="a"} 12.5`,
		`cbde_class_base_age_seconds{class="b"} 3`,
		"# TYPE cbde_bytes_saved_total counter\ncbde_bytes_saved_total 999\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if n := strings.Count(out, "# TYPE cbde_class_base_age_seconds"); n != 1 {
		t.Errorf("TYPE header for collected family appears %d times, want 1", n)
	}
}

// TestExposeParsesRoundTrip feeds Expose output through the package's own
// exposition parser: what we serve must be what a scraper can ingest.
func TestExposeParsesRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("requests").Add(7)
	r.Histogram("latency", 0.01, 0.1).Observe(0.02)
	r.HistogramFamily("stage_seconds", "stages", []string{"stage"}, 0.001).With("gzip").Observe(0.5)
	r.RegisterCollector(func(c *Collection) {
		c.Gauge("up", "", nil, 1)
		c.Counter("per_class_total", "per class", []Label{{"class", `tricky"\` + "\n"}}, 1)
		c.Gauge("derived", "derived value", []Label{{"k", "v"}}, math.Pi)
	})

	var b strings.Builder
	if err := r.Expose(&b); err != nil {
		t.Fatal(err)
	}
	exp, err := ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("Expose output does not parse: %v\n%s", err, b.String())
	}
	for _, series := range []string{
		"requests", "up",
		"latency_bucket", "latency_sum", "latency_count",
		"per_class_total",
		"stage_seconds_bucket", "stage_seconds_sum", "stage_seconds_count",
		"derived",
	} {
		if !exp.Series(series) {
			t.Errorf("parsed exposition missing series %s", series)
		}
	}
	if exp.Types["latency"] != "histogram" {
		t.Errorf("latency TYPE = %q, want histogram", exp.Types["latency"])
	}
	// The escaped label value must round-trip exactly.
	found := false
	for _, s := range exp.Samples {
		if s.Name != "per_class_total" {
			continue
		}
		if v, ok := s.Label("class"); ok && v == `tricky"\`+"\n" {
			found = true
		}
	}
	if !found {
		t.Error("escaped label value did not round-trip")
	}
}

func TestParseExpositionRejectsGarbage(t *testing.T) {
	bad := []string{
		"",                                      // no samples
		"not a metric line",                     // no value
		"9bad_name 1",                           // name starts with digit
		`m{l="unterminated} 1`,                  // unterminated quote
		`m{l="v"} notafloat`,                    // bad value
		"# TYPE m sometype\nm 1",                // unknown type
		"# TYPE m counter\n# TYPE m gauge\nm 1", // conflicting types
		`m{9bad="v"} 1`,                         // bad label name
		`m{l="v"\} 1`,                           // bad escape position
	}
	for _, doc := range bad {
		if _, err := ParseExposition(strings.NewReader(doc)); err == nil {
			t.Errorf("ParseExposition accepted %q", doc)
		}
	}
	good := "# random comment\n# HELP m some help\n# TYPE m counter\nm{a=\"b\",c=\"d\"} 1 1690000000\nm2 +Inf\n"
	exp, err := ParseExposition(strings.NewReader(good))
	if err != nil {
		t.Fatalf("ParseExposition rejected valid doc: %v", err)
	}
	if len(exp.Samples) != 2 {
		t.Errorf("parsed %d samples, want 2", len(exp.Samples))
	}
	if !math.IsInf(exp.Samples[1].Value, 1) {
		t.Errorf("m2 value = %v, want +Inf", exp.Samples[1].Value)
	}
}

func TestExposeHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency", 0.01, 0.1, 1)
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	fam := r.HistogramFamily("stage_seconds", "stages", []string{"stage"}, 0.001)
	fam.With("gzip").Observe(0.5)
	r.Histogram("empty", 1) // no observations: quantiles expose as 0

	var b strings.Builder
	if err := r.Expose(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE latency_quantile gauge\n",
		`latency_quantile{quantile="0.5"} `,
		`latency_quantile{quantile="0.9"} `,
		`latency_quantile{quantile="0.99"} `,
		"# TYPE stage_seconds_quantile gauge\n",
		`stage_seconds_quantile{stage="gzip",quantile="0.5"} 0.5`,
		`empty_quantile{quantile="0.99"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	exp, err := ParseExposition(strings.NewReader(out))
	if err != nil {
		t.Fatalf("exposition with quantiles does not parse: %v\n%s", err, out)
	}
	if exp.Types["latency_quantile"] != "gauge" {
		t.Errorf("latency_quantile TYPE = %q, want gauge", exp.Types["latency_quantile"])
	}
	// The estimates themselves must order sensibly over a uniform stream.
	var p50, p99 float64
	for _, s := range exp.Samples {
		if s.Name != "latency_quantile" {
			continue
		}
		switch v, _ := s.Label("quantile"); v {
		case "0.5":
			p50 = s.Value
		case "0.99":
			p99 = s.Value
		}
	}
	if !(p50 > 0.4 && p50 < 0.6 && p99 > 0.9 && p99 <= 1.0) {
		t.Errorf("uniform-stream quantiles implausible: p50=%v p99=%v", p50, p99)
	}
}

func TestHistogramQuantilesSharedSort(t *testing.T) {
	h := NewHistogram(1)
	for i := 1; i <= 99; i++ {
		h.Observe(float64(i))
	}
	got := h.Quantiles(0, 0.5, 1)
	want := []float64{1, 50, 99}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Quantiles[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if v := h.Quantile(0.5); v != 50 {
		t.Errorf("Quantile(0.5) = %v, want 50", v)
	}
	var empty Histogram
	if got := empty.Quantiles(0.5, 0.99); got[0] != 0 || got[1] != 0 {
		t.Errorf("empty histogram quantiles = %v, want zeros", got)
	}
}
