package main

import (
	"fmt"
	"time"

	"cbde/internal/anonymize"
	"cbde/internal/basefile"
	"cbde/internal/core"
	"cbde/internal/origin"
)

// siteHost is the server-part every workload's site is grouped under.
const siteHost = "www.bench.com"

// workload is one traffic mix and the tier it runs against. BENCHMARK.json
// carries each workload's name and one-line rationale; the parameters that
// make the workload what it is are frozen here, because later changes are
// compared against numbers measured with exactly these values.
type workload struct {
	Name string
	// Nodes is the delta-server tier size: 1 standalone, >1 a cluster in
	// proxy-forward mode with users pinned round-robin to nodes.
	Nodes int
	Site  origin.Config
	// Users is the delta-capable client population, multiplexed over the
	// worker connections (user u runs on worker u mod workers).
	Users int
	// TickEvery advances the origin's content one tick every this many
	// requests (by request index, never wall time).
	TickEvery int
	// AltEvery > 0 restricts traffic to one half of the departments and
	// switches halves every AltEvery requests, so the idle half goes cold.
	AltEvery int
	// LagMean > 0 makes clients refresh their base-files a geometrically
	// distributed number of versions (this mean) behind the latest.
	LagMean float64
	// Engine is the per-node engine configuration apart from the fields
	// the stack fills in (clock, spill directory, version striding).
	Engine core.Config
	// Spill gives every node a spill directory under the run's temp dir.
	Spill bool
	// RateRPS is the open-phase arrival rate: a constant frozen at about
	// 45 % of the closed-phase throughput_rps measured at the commit that
	// added this benchmark on a 2-core box. It is never derived at run time.
	RateRPS float64
	// Guard reports every way the finished run failed to exercise the
	// mechanism the workload exists for, from per-layer metrics.
	Guard func(m map[string]float64) []string
}

// productSelector mirrors cmd/deltaserver's defaults (p=0.2, K=8, 10 min
// rebase timeout, asynchronous admission).
func productSelector() basefile.Config {
	return basefile.Config{
		SampleProb:    0.2,
		MaxSamples:    8,
		RebaseTimeout: 10 * time.Minute,
		AsyncSampling: true,
	}
}

// productAnon mirrors cmd/deltaserver's -anon-m 2 -anon-n 5.
func productAnon() anonymize.Config { return anonymize.Config{M: 2, N: 5} }

func catalogSite(depts, items int, personalized bool) origin.Config {
	cfg := origin.Config{
		Host:          siteHost,
		Style:         origin.StylePathSegments,
		TemplateBytes: 30000,
		ItemBytes:     4000,
		ChurnBytes:    1500,
		Personalized:  personalized,
		Seed:          7,
	}
	for d := 0; d < depts; d++ {
		cfg.Depts = append(cfg.Depts, origin.Dept{Name: fmt.Sprintf("dept%d", d), Items: items})
	}
	return cfg
}

func atLeast(m map[string]float64, name string, min float64) string {
	if v := m[name]; v < min {
		return fmt.Sprintf("%s = %g, want >= %g", name, v, min)
	}
	return ""
}

func atMost(m map[string]float64, name string, max float64) string {
	if v := m[name]; v > max {
		return fmt.Sprintf("%s = %g, want <= %g", name, v, max)
	}
	return ""
}

func violations(checks ...string) []string {
	var out []string
	for _, c := range checks {
		if c != "" {
			out = append(out, c)
		}
	}
	return out
}

// workloads returns the four frozen workloads in BENCHMARK.json order.
func workloads() []*workload {
	hot := func(name string, nodes int, rate float64) *workload {
		// No candidate sampling: with the product's p=0.2, K=8 every fifth
		// request runs up to 2K vdelta estimates under the class's selector
		// lock, which alone is over half of this traffic's CPU and would
		// bury the plumbing these two workloads exist to expose. The other
		// two workloads keep the product's selector.
		sel := productSelector()
		sel.SampleProb = -1
		return &workload{
			Name:      name,
			Nodes:     nodes,
			Site:      catalogSite(2, 8, false),
			Users:     64,
			TickEvery: 500,
			Engine:    core.Config{Selector: sel, Anon: productAnon()},
			RateRPS:   rate,
		}
	}

	hotMemo := hot("hot_memo", 1, rateHotMemo)
	hotMemo.Guard = func(m map[string]float64) []string {
		return violations(atLeast(m, "deltacache.hit_frac", 0.9))
	}

	churn := &workload{
		Name:      "churn_encode",
		Nodes:     1,
		Site:      catalogSite(2, 8, true),
		Users:     256,
		TickEvery: 500,
		Engine:    core.Config{Selector: productSelector(), Anon: productAnon()},
		RateRPS:   rateChurnEncode,
		Guard: func(m map[string]float64) []string {
			return violations(atMost(m, "deltacache.hit_frac", 0.1))
		},
	}

	cluster := hot("cluster_forward", 4, rateClusterForward)
	cluster.Guard = func(m map[string]float64) []string {
		return violations(
			atLeast(m, "cluster.forward_frac", 0.6),
			atMost(m, "cluster.forward_frac", 0.9),
			atMost(m, "cluster.forward_errors", 0),
		)
	}

	squeezeSel := productSelector()
	// The engine clock is the request counter (1 ms per request), so this
	// allows one group-rebase per class every 150 requests: bases install,
	// edges build and old versions prune throughout the run.
	squeezeSel.RebaseTimeout = 150 * time.Millisecond
	squeeze := &workload{
		Name:      "stale_squeeze",
		Nodes:     1,
		Site:      catalogSite(8, 16, true),
		Users:     64,
		TickEvery: 20,
		AltEvery:  300,
		LagMean:   2,
		Engine: core.Config{
			Selector:   squeezeSel,
			Anon:       productAnon(),
			GraphDepth: 6,
			MemBudget:  squeezeMemBudget,
		},
		Spill:   true,
		RateRPS: rateStaleSqueeze,
		Guard: func(m map[string]float64) []string {
			return violations(
				atLeast(m, "store.faultins", 1),
				atLeast(m, "store.spills", 1),
				atLeast(m, "graph.composed", 1),
				atLeast(m, "basefile.installs", 1),
			)
		},
	}

	return []*workload{hotMemo, churn, cluster, squeeze}
}

func workloadByName(name string) *workload {
	for _, w := range workloads() {
		if w.Name == name {
			return w
		}
	}
	return nil
}
