// Command bench is the repository's request-path benchmark: it builds the
// whole path in one process over loopback TCP — origin, a delta-server tier,
// delta-capable clients — drives it from a seeded schedule, verifies every
// reconstructed document, and reports the end-to-end and per-layer metrics
// BENCHMARK.json names. See README.md in this directory.
//
//	go run ./bench -out A.json                        every workload, both runs
//	go run ./bench -workload hot_memo -trace 0        one end-to-end run
//	go run ./bench -compare A.json B.json             apply the bounds
//
// Standard output carries one line per run, a JSON object with exactly the
// keys correct, attempted, failed and metrics; progress and a readable
// metric table go to standard error, the full report to -out.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadFlag = fs.String("workload", "", "comma-separated workloads to run (default: all)")
		seedFlag     = fs.String("seed", "1", "comma-separated seeds; each seed is one set of runs")
		seconds      = fs.Float64("seconds", defaultSeconds, "seconds one run measures; anything but the default marks the report scaled")
		traceFlag    = fs.String("trace", "both", "0: end-to-end runs, 1: traced per-layer runs, both: one after the other")
		out          = fs.String("out", "", "write the full report (environment and every run) to this file")
		doCompare    = fs.Bool("compare", false, "compare two reports: bench -compare A.json B.json")
		tmp          = fs.String("tmp", filepath.Join(".bench_build", "tmp"), "directory for spill segments, created if missing")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	if *doCompare {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two report files"))
		}
		spec, err := loadSpec()
		if err != nil {
			return fail(err)
		}
		a, err := readReport(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readReport(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if compare(spec, a, b, os.Stdout) {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return fail(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}

	var selected []*workload
	if *workloadFlag == "" {
		selected = workloads()
	}
	for _, name := range strings.Split(*workloadFlag, ",") {
		if name == "" {
			continue
		}
		w := workloadByName(name)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", name))
		}
		selected = append(selected, w)
	}
	var seeds []uint64
	for _, s := range strings.Split(*seedFlag, ",") {
		v, err := strconv.ParseUint(s, 10, 56)
		if err != nil {
			return fail(fmt.Errorf("-seed: %w", err))
		}
		seeds = append(seeds, v)
	}
	var modes []bool
	switch *traceFlag {
	case "0":
		modes = []bool{false}
	case "1":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		return fail(fmt.Errorf("-trace wants 0, 1 or both, not %q", *traceFlag))
	}
	if *seconds <= 0 {
		return fail(fmt.Errorf("-seconds must be positive"))
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		return fail(err)
	}

	workers := runtime.GOMAXPROCS(0)
	rep := newReport(workers, *seconds)
	fmt.Fprintf(os.Stderr, "bench: %d workers on %s (nproc %d), all traffic over host loopback\n",
		workers, runtime.Version(), runtime.NumCPU())
	code := 0
	for _, seed := range seeds {
		for _, wl := range selected {
			for _, traced := range modes {
				res, err := run(runConfig{
					Workload: wl, Seed: seed, Seconds: *seconds, Traced: traced,
					Workers: workers, TmpDir: *tmp, Log: os.Stderr,
				})
				if err != nil {
					return fail(fmt.Errorf("%s: %w", wl.Name, err))
				}
				rep.Runs = append(rep.Runs, res)
				printMetrics(os.Stderr, res)
				if !res.Correct {
					code = 1
					fmt.Fprintf(os.Stderr, "bench: %s NOT CORRECT: failed %d of %d (%s), overloaded %v (%s), guards %q\n",
						wl.Name, res.Failed, res.Attempted, res.FirstError, res.Overloaded, res.Overload, res.Guards)
				}
				fmt.Println(contractLine(res))
			}
		}
	}
	if *out != "" {
		if err := rep.write(*out); err != nil {
			return fail(err)
		}
	}
	return code
}
