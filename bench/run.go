package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	Workload *workload
	Seed     uint64
	// Seconds is how long the run measures; the phases split it.
	Seconds float64
	// Traced selects the per-layer run (an untraced and a traced closed
	// phase, a short open phase, the probe pass) over the end-to-end run
	// (closed phase, open phase).
	Traced  bool
	Workers int
	TmpDir  string
	// Rate overrides the workload's frozen open-phase rate (tests only).
	Rate float64
	Log  io.Writer
}

// runResult is one run's outcome: the contract line's fields plus what a
// reader needs to trust or distrust them.
type runResult struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Traced     bool    `json:"traced"`
	Seconds    float64 `json:"seconds"`
	Scaled     bool    `json:"scaled"` // Seconds is not BENCHMARK.json's run_seconds
	RateRPS    float64 `json:"rate_rps"`
	Correct    bool    `json:"correct"`
	Attempted  int     `json:"attempted"`
	Failed     int     `json:"failed"`
	FirstError string  `json:"first_error,omitempty"`
	Overloaded bool    `json:"overloaded"`
	Overload   string  `json:"overload_reason,omitempty"`
	// OpenAttempts is how many times the open phase was measured; only the
	// last attempt is reported.
	OpenAttempts int      `json:"open_attempts"`
	Guards       []string `json:"guard_violations"`
	// RefreshErrors counts correct documents whose follow-up base-file
	// refresh failed (the version was evicted between the two requests).
	RefreshErrors int                    `json:"refresh_errors"`
	Metrics       map[string]metricValue `json:"metrics"`

	layer map[string]float64 // per-layer counts, for guards in either mode
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Phase shares of -seconds. The warm-up is extra: it is not measured.
const (
	warmupShare = 0.10

	closedShare = 0.40 // end-to-end run
	openShare   = 0.60

	untracedShare   = 0.30 // per-layer run
	tracedShare     = 0.30
	tracedOpenShare = 0.20 // the rest, up to 0.20, is the probe pass
)

// openAttempts bounds how often an invalid open phase is measured again.
const openAttempts = 3

// setupRuns is how many times a run builds and warms the tier; setup_s is
// the median, and the last tier built is the one measured.
const setupRuns = 7

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// setup builds and warms the tier setupRuns times and returns the last one
// with the median set-up time.
func setup(cfg runConfig) (*stack, float64, error) {
	n := setupRuns
	if cfg.Traced || cfg.Seconds < defaultSeconds {
		// setup_s is an end-to-end metric, and a scaled-down run (the smoke
		// test) does not report real numbers anyway.
		n = 1
	}
	var times []float64
	for i := 0; ; i++ {
		// The tiers torn down so far are garbage; collecting it here keeps
		// it out of the set-up being timed.
		runtime.GC()
		t0 := time.Now()
		st, err := buildStack(cfg.Workload, cfg.Workers, cfg.Seed, cfg.TmpDir)
		if err != nil {
			return nil, 0, err
		}
		if err := st.warm(); err != nil {
			st.close()
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i == n-1 {
			return st, quantile(times, 0.5), nil
		}
		st.close()
	}
}

// run executes one run of one workload and reports its metrics.
func run(cfg runConfig) (*runResult, error) {
	wl := cfg.Workload
	rate := wl.RateRPS
	if cfg.Rate > 0 {
		rate = cfg.Rate
	}
	res := &runResult{
		Workload: wl.Name, Seed: cfg.Seed, Traced: cfg.Traced,
		Seconds: cfg.Seconds, Scaled: cfg.Seconds != defaultSeconds, RateRPS: rate,
		Guards:  []string{},
		Metrics: map[string]metricValue{},
		layer:   map[string]float64{},
	}
	logf := func(format string, args ...any) {
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "bench: %s seed=%d traced=%v: "+format+"\n",
				append([]any{wl.Name, cfg.Seed, cfg.Traced}, args...)...)
		}
	}

	streams := []int{streamWarmup, streamClosed, streamOpen}
	if cfg.Traced {
		streams = append(streams, streamTraced)
	}
	sched := map[int]*schedule{}
	for _, id := range streams {
		var err error
		if sched[id], err = genSchedule(wl, cfg.Seed, id, cfg.Workers); err != nil {
			return nil, err
		}
	}

	st, setupS, err := setup(cfg)
	if err != nil {
		return nil, err
	}
	defer st.close()
	logf("set up in %.3f s", setupS)

	st.runClosed(sched[streamWarmup], secs(cfg.Seconds*warmupShare))

	vals := map[string]float64{}
	note := func(p phaseResult) {
		res.Attempted += p.attempted
		res.Failed += p.failed
		res.RefreshErrors += p.refreshErrs
		if res.FirstError == "" {
			res.FirstError = p.firstErr
		}
	}
	// An open phase the driver could not keep on schedule says nothing about
	// latency. Interference from outside the process is the usual cause on a
	// shared machine, so the phase is measured again, up to openAttempts
	// times; the run is invalid only if the last attempt still is.
	openPhase := func(d time.Duration) (p phaseResult, c0, c1 counters) {
		for {
			c0 = st.counters()
			p = st.runOpen(sched[streamOpen], d, rate)
			c1 = st.counters()
			note(p)
			res.OpenAttempts++
			res.Overload = overloadReason(p.backlog, p.schedLag)
			res.Overloaded = res.Overload != ""
			if !res.Overloaded || res.OpenAttempts == openAttempts {
				// Only the reported attempt's unsent requests count: an
				// earlier attempt's were sent again by this one.
				res.Attempted += p.refused
				res.Failed += p.refused
				if p.refused > 0 && res.FirstError == "" {
					res.FirstError = fmt.Sprintf("%d requests refused: still waiting at twice the open phase's length", p.refused)
				}
				return p, c0, c1
			}
			logf("open phase attempt %d invalid (%s), measuring it again", res.OpenAttempts, res.Overload)
		}
	}
	before := st.counters()

	if !cfg.Traced {
		cpu0 := cpuTime()
		closed := st.runClosed(sched[streamClosed], secs(cfg.Seconds*closedShare))
		cpu := cpuTime() - cpu0
		note(closed)
		logf("closed phase: %d requests, %.0f req/s", closed.attempted, closed.throughput())

		open, c0, c1 := openPhase(secs(cfg.Seconds * openShare))
		latency := values(open.latency)
		logf("open phase at %.0f req/s: %d requests, p50 %.3f ms, sched lag p99 %.3f ms", rate, open.attempted,
			quantile(latency, 0.5)/1e6, schedLagP99(open.schedLag))

		responses := float64(c1.clientDelta - c0.clientDelta + c1.clientFull - c0.clientFull)
		vals["setup_s"] = setupS
		vals["throughput_rps"] = closed.throughput()
		vals["cpu_ms_per_req"] = ratio(float64(cpu)/1e6, float64(closed.verified()))
		vals["latency_p50_ms"] = quantile(latency, 0.5) / 1e6
		vals["latency_p90_ms"] = quantile(latency, 0.9) / 1e6
		vals["wire_bytes_per_req"] = ratio(float64(c1.payloadBytes-c0.payloadBytes+c1.baseBytes-c0.baseBytes),
			float64(c1.clientRequests-c0.clientRequests))
		vals["delta_frac"] = ratio(float64(c1.clientDelta-c0.clientDelta), responses)
		vals["heap_live_mb"] = liveHeapMB()
		st.layerCounts(before, c1, res.layer)
		for _, d := range endToEndMetrics {
			res.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
		}
	} else {
		rt0 := readRuntime()
		untraced := st.runClosed(sched[streamClosed], secs(cfg.Seconds*untracedShare))
		runtimeMetrics(rt0, readRuntime(), untraced.verified(), vals)
		note(untraced)

		st.digests.timed.Store(true)
		cpu0 := cpuTime()
		st.rec.start()
		traced := st.runClosed(sched[streamTraced], secs(cfg.Seconds*tracedShare))
		st.rec.on.Store(false)
		cpu := cpuTime() - cpu0
		st.digests.timed.Store(false)
		note(traced)
		logf("closed phases: %.0f req/s untraced, %.0f req/s traced, %d spans",
			untraced.throughput(), traced.throughput(), len(st.rec.spans))

		open, _, _ := openPhase(secs(cfg.Seconds * tracedOpenShare))

		vals["driver.sched_lag_p99_ms"] = schedLagP99(open.schedLag)
		vals["driver.latency_p99_ms"] = quantile(values(open.latency), 0.99) / 1e6
		vals["driver.trace_overhead_frac"] = 1 - ratio(traced.throughput(), untraced.throughput())
		vals["driver.verify_cpu_frac"] = ratio(float64(st.digests.hashNS.Load()), float64(cpu))
		spanMetrics(st.rec.spans, vals)
		st.layerCounts(before, st.counters(), vals)
		res.layer = vals

		// The tier is idle from here on; the probe pass times the layers no
		// HTTP wrapper can isolate, on this workload's own documents.
		if err := probe(wl, st.site, cfg.TmpDir, cfg.Seconds, vals); err != nil {
			return nil, err
		}
		for _, d := range perLayerMetrics {
			res.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
		}
	}

	res.Guards = append(res.Guards, wl.Guard(res.layer)...)
	res.Correct = res.Failed == 0 && len(res.Guards) == 0 && !res.Overloaded
	return res, nil
}
