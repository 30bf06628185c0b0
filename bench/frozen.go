package main

// Constants measured once, at the commit that added this benchmark, on the
// 2-core box its baseline was taken on (see README.md), and frozen: a later
// change is compared against numbers taken at exactly these rates, so they
// are never derived at run time. Each rate is about 45 % of the workload's
// closed-phase throughput_rps, to two significant figures.
const (
	rateHotMemo        = 550
	rateChurnEncode    = 140
	rateClusterForward = 500
	rateStaleSqueeze   = 210

	// squeezeMemBudget is about a tenth of stale_squeeze's unbudgeted
	// resident class storage (store.resident_mb is 22.9 MB with MemBudget
	// 0). The budgeted store prunes every class down to its newest base
	// before it evicts any, and the eight classes fully pruned still hold
	// about 2.8 MB, so only a budget below that ever evicts, spills and
	// faults in; at a third of the unbudgeted size nothing would.
	squeezeMemBudget = 2_250_000
)

// defaultSeconds is BENCHMARK.json's run_seconds: what one run measures.
// Any other -seconds marks the report as scaled.
const defaultSeconds = 20
