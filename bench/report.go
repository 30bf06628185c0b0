package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"text/tabwriter"
)

// gitCommit is stamped by bench/run.sh (-ldflags -X); `go run ./bench`
// falls back to the toolchain's VCS stamp.
var gitCommit string

// report is the document -out writes: where the numbers were taken, and
// every run.
type report struct {
	Benchmark string       `json:"benchmark"`
	Env       reportEnv    `json:"env"`
	Runs      []*runResult `json:"runs"`
}

type reportEnv struct {
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	GitCommit  string             `json:"git_commit"`
	Network    string             `json:"network"`
	Workers    int                `json:"workers"`
	RunSeconds float64            `json:"run_seconds"`
	RateRPS    map[string]float64 `json:"rate_rps"`
}

func newReport(workers int, seconds float64) *report {
	commit := gitCommit
	if commit == "" {
		commit = "unknown"
		if bi, ok := debug.ReadBuildInfo(); ok {
			for _, s := range bi.Settings {
				if s.Key == "vcs.revision" {
					commit = s.Value
				}
			}
		}
	}
	rates := map[string]float64{}
	for _, w := range workloads() {
		rates[w.Name] = w.RateRPS
	}
	return &report{
		Benchmark: "cbde request path: origin -> delta-server tier -> delta clients",
		Env: reportEnv{
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			GitCommit:  commit,
			Network:    "host loopback (127.0.0.1); origin, tier and clients share one process and its CPUs",
			Workers:    workers,
			RunSeconds: seconds,
			RateRPS:    rates,
		},
	}
}

func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// contractLine is the one-line result the benchmark contract asks for:
// exactly correct, attempted, failed and metrics.
func contractLine(res *runResult) string {
	b, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(b)
}

// printMetrics lists a run's metrics for a reader, in table order.
func printMetrics(w io.Writer, res *runResult) {
	defs := endToEndMetrics
	if res.Traced {
		defs = perLayerMetrics
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, d := range defs {
		fmt.Fprintf(tw, "  %s\t%.6g\t%s\n", d.Name, res.Metrics[d.Name].Value, d.Unit)
	}
	tw.Flush()
}

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadSpec reads BENCHMARK.json from the repository root, whether the
// program runs there or (under go test) in bench/.
func loadSpec() (*benchSpec, error) {
	var firstErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(b, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		return &s, nil
	}
	return nil, firstErr
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with quartiles as Python's
// statistics.quantiles(xs, n=4) computes them. Fewer than two values have
// no spread.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return ratio(q(3)-q(1), math.Abs(q(2)))
}

// compare applies every end-to-end metric's bound, per workload, to two
// sets of runs, writes one row per (workload, metric), and reports whether
// any row regressed. A set's value is the median of its end-to-end runs of
// that workload. A row is unresolved, not ok, when either set's own
// quartile spread is wider than the bound.
func compare(spec *benchSpec, a, b *report, w io.Writer) (regressed bool) {
	collect := func(r *report, workload, metric string) []float64 {
		var xs []float64
		for _, run := range r.Runs {
			if mv, ok := run.Metrics[metric]; ok && run.Workload == workload && !run.Traced {
				xs = append(xs, mv.Value)
			}
		}
		return xs
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tworse by\tspread A\tspread B\tbound\tstatus")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			xa, xb := collect(a, wl.Name, m.Name), collect(b, wl.Name, m.Name)
			if len(xa) == 0 || len(xb) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t-\t-\t-\t-\t-\t%.3g\tmissing\n", wl.Name, m.Name, m.Bound)
				continue
			}
			sa, sb := quartileSpread(xa), quartileSpread(xb)
			ma, mb := quantile(xa, 0.5), quantile(xb, 0.5)
			worse := ratio(mb-ma, math.Abs(ma))
			if m.Better == "higher" {
				worse = -worse
			}
			spread := math.Max(sa, sb)
			status := "ok"
			switch {
			case worse > m.Bound && worse > spread:
				status = "regressed"
				regressed = true
			case spread > m.Bound:
				status = "unresolved"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%+.2f%%\t%.2f%%\t%.2f%%\t%.3g\t%s\n",
				wl.Name, m.Name, ma, mb, 100*worse, 100*sa, 100*sb, m.Bound, status)
		}
	}
	tw.Flush()
	return regressed
}
