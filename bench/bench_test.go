package main

import (
	"math"
	"sort"
	"strings"
	"testing"
)

// smokeSeconds keeps every run to a fraction of a second of measurement:
// the smoke test checks that the benchmark runs and reports, not what it
// reports.
const smokeSeconds = 0.5

func smokeConfig(t *testing.T, wl *workload, traced bool) runConfig {
	return runConfig{
		Workload: wl, Seed: 1, Seconds: smokeSeconds, Traced: traced,
		Workers: 2, TmpDir: t.TempDir(),
		// Far below any workload's capacity, so a loaded test machine
		// cannot make the open phase overload.
		Rate: 100,
	}
}

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

// TestSpecMatchesTables pins BENCHMARK.json to the code: same workloads,
// same metric names and units, and bounds the contract allows.
func TestSpecMatchesTables(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, defaultSeconds = %d", spec.RunSeconds, defaultSeconds)
	}
	var specWorkloads, codeWorkloads []string
	for _, w := range spec.Workloads {
		specWorkloads = append(specWorkloads, w.Name)
	}
	for _, w := range workloads() {
		codeWorkloads = append(codeWorkloads, w.Name)
	}
	if strings.Join(specWorkloads, ",") != strings.Join(codeWorkloads, ",") {
		t.Errorf("workloads: BENCHMARK.json has %v, code has %v", specWorkloads, codeWorkloads)
	}
	check := func(kind string, spec []specMetric, defs []metricDef) {
		if len(spec) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(spec), len(defs))
			return
		}
		for i, d := range defs {
			if spec[i].Name != d.Name || spec[i].Unit != d.Unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), code has %s (%s)",
					kind, i, spec[i].Name, spec[i].Unit, d.Name, d.Unit)
			}
			if spec[i].Better != "lower" && spec[i].Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, spec[i].Better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndMetrics)
	check("per_layer", spec.PerLayer, perLayerMetrics)
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// TestSmoke runs every workload briefly, end to end and traced, and checks
// that each run verifies every document and reports exactly the metrics
// BENCHMARK.json promises, each finite.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads() {
		if testing.Short() && wl.Nodes > 1 {
			continue
		}
		for _, traced := range []bool{false, true} {
			res, err := run(smokeConfig(t, wl, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.Name, traced, err)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d of %d requests failed: %s",
					wl.Name, traced, res.Failed, res.Attempted, res.FirstError)
			}
			if !res.Scaled {
				t.Errorf("%s: a %g s run is not marked scaled", wl.Name, smokeSeconds)
			}
			want := endToEndMetrics
			if traced {
				want = perLayerMetrics
			}
			var got []string
			for name, mv := range res.Metrics {
				got = append(got, name)
				if math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0) {
					t.Errorf("%s traced=%v: %s = %v", wl.Name, traced, name, mv.Value)
				}
			}
			wantNames := names(want)
			sort.Strings(got)
			sort.Strings(wantNames)
			if strings.Join(got, ",") != strings.Join(wantNames, ",") {
				t.Errorf("%s traced=%v: metrics %v, want %v", wl.Name, traced, got, wantNames)
			}
			for _, d := range want {
				if res.Metrics[d.Name].Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, want %q", wl.Name, d.Name, res.Metrics[d.Name].Unit, d.Unit)
				}
			}
			if !strings.Contains(contractLine(res), `"correct":`) {
				t.Errorf("%s: contract line %s", wl.Name, contractLine(res))
			}
		}
	}
}

// TestGuardTripsOnWrongWorkload gives churn_encode's traffic hot_memo's
// guard: every body is unique, so the delta cache cannot hit and the run
// must not count as correct.
func TestGuardTripsOnWrongWorkload(t *testing.T) {
	wrong := *workloadByName("churn_encode")
	wrong.Guard = workloadByName("hot_memo").Guard
	res, err := run(smokeConfig(t, &wrong, false))
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || len(res.Guards) == 0 {
		t.Errorf("correct = %v, guard violations = %v; want hot_memo's guard to trip", res.Correct, res.Guards)
	}
	// A run that half-hit the delta cache and did nothing else is no
	// workload's: every guard must object.
	for _, wl := range workloads() {
		if got := wl.Guard(map[string]float64{"deltacache.hit_frac": 0.5}); len(got) == 0 {
			t.Errorf("%s: guard accepts a run that exercised nothing", wl.Name)
		}
	}
}

// TestOverloadTrips asks for an arrival rate the tier cannot serve: the
// due-time backlog grows to the end of the phase and the run is invalid.
func TestOverloadTrips(t *testing.T) {
	cfg := smokeConfig(t, workloadByName("hot_memo"), false)
	cfg.Rate = 200000
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Overloaded || res.Correct {
		t.Errorf("overloaded = %v (%s), correct = %v; want an invalid open phase", res.Overloaded, res.Overload, res.Correct)
	}
}

func TestOverloadReason(t *testing.T) {
	steady := make([]sample, 100)
	growing := make([]sample, 100)
	for i := range growing {
		growing[i].v = int64(i) * 1e6 // 1 ms more backlog per request
	}
	if why := overloadReason(steady, nil); why != "" {
		t.Errorf("steady backlog: %s", why)
	}
	if why := overloadReason(growing, nil); why == "" {
		t.Error("growing backlog not reported")
	}
	if why := overloadReason(steady, []int64{6e6, 6e6, 6e6}); why == "" {
		t.Error("6 ms scheduling lag not reported")
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25].
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{7}); got != 0 {
		t.Errorf("one value has spread %v", got)
	}
}

func TestCompare(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(scale float64) *report {
		r := &report{}
		for _, w := range spec.Workloads {
			run := &runResult{Workload: w.Name, Metrics: map[string]metricValue{}}
			for _, m := range spec.EndToEnd {
				v := 100.0
				if m.Name == "latency_p50_ms" {
					v *= scale
				}
				run.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
			}
			r.Runs = append(r.Runs, run)
		}
		return r
	}
	var out strings.Builder
	if compare(spec, mk(1), mk(1), &out) {
		t.Errorf("identical reports regressed:\n%s", out.String())
	}
	out.Reset()
	if !compare(spec, mk(1), mk(2), &out) {
		t.Errorf("doubled latency_p50_ms did not regress:\n%s", out.String())
	}
	if n := strings.Count(out.String(), "regressed"); n != len(spec.Workloads) {
		t.Errorf("%d regressed rows, want one per workload:\n%s", n, out.String())
	}
}
