package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one metric of the benchmark and its unit. The two tables
// below are the benchmark's vocabulary: BENCHMARK.json lists exactly these
// names (bench_test.go checks it), and later changes quote them.
type metricDef struct {
	Name, Unit string
}

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"cpu_ms_per_req", "ms"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"wire_bytes_per_req", "B"},
	{"delta_frac", "ratio"},
	{"heap_live_mb", "MB"},
}

var perLayerMetrics = []metricDef{
	{"driver.sched_lag_p99_ms", "ms"},
	{"driver.latency_p99_ms", "ms"},
	{"driver.trace_overhead_frac", "ratio"},
	{"driver.verify_cpu_frac", "ratio"},

	{"deltaclient.get_us_p50", "us"},
	{"deltaclient.get_us_p99", "us"},
	{"deltaclient.self_us_p50", "us"},
	{"deltaclient.roundtrips_per_get", "ratio"},
	{"deltaclient.payload_bytes_per_req", "B"},
	{"deltaclient.base_bytes_per_req", "B"},
	{"deltaclient.chain_frac", "ratio"},

	{"deltaserver.serve_us_p50", "us"},
	{"deltaserver.serve_us_p99", "us"},
	{"deltaserver.self_us_p50", "us"},
	{"deltaserver.origin_fetch_us_p50", "us"},
	{"deltaserver.base_serve_us_p50", "us"},
	{"deltaserver.dials", "count"},

	{"cluster.forward_frac", "ratio"},
	{"cluster.forward_hop_us_p50", "us"},
	{"cluster.peer_serve_us_p50", "us"},
	{"cluster.forward_errors", "count"},
	{"cluster.remote_base", "count"},

	{"origin.serve_us_p50", "us"},
	{"origin.render_ns_op", "ns"},

	{"core.process_warm_ns_op", "ns"},
	{"core.process_warm_allocs_op", "count"},
	{"core.process_encode_ns_op", "ns"},
	{"core.process_encode_allocs_op", "count"},
	{"core.delta_frac", "ratio"},
	{"core.full_frac", "ratio"},
	{"core.basic_rebases", "count"},
	{"core.storage_mb", "MB"},

	{"deltacache.hit_frac", "ratio"},
	{"deltacache.coalesced", "count"},
	{"deltacache.mb", "MB"},
	{"deltacache.invalidations", "count"},

	{"vdelta.encode_ns_op", "ns"},
	{"vdelta.encode_allocs_op", "count"},
	{"vdelta.encode_mb_s", "MB/s"},
	{"vdelta.decode_ns_op", "ns"},
	{"vdelta.delta_bytes_p50", "B"},

	{"gzipx.compress_ns_op", "ns"},
	{"gzipx.compress_allocs_op", "count"},
	{"gzipx.decompress_ns_op", "ns"},
	{"gzipx.ratio", "ratio"},

	{"store.resident_mb", "MB"},
	{"store.evictions", "count"},
	{"store.prunes", "count"},
	{"store.spills", "count"},
	{"store.faultins", "count"},
	{"store.spill_us_op", "us"},
	{"store.faultin_us_op", "us"},
	{"store.disk_mb", "MB"},

	{"graph.direct", "count"},
	{"graph.composed", "count"},
	{"graph.fallback_full", "count"},
	{"graph.edge_mb", "MB"},

	{"classify.classes", "count"},
	{"classify.probes_per_req", "ratio"},
	{"basefile.installs", "count"},
	{"anonymize.completed", "count"},

	{"runtime.allocs_per_req", "count"},
	{"runtime.alloc_kb_per_req", "KB"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"runtime.gc_cycles", "count"},
}

const mb = 1 << 20

// quantile returns the q-quantile of xs by linear interpolation, or 0 for
// an empty sample. xs is reordered.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// counters is every cumulative count the layers publish, summed over the
// tier's nodes. Metrics over a measured interval are differences of two.
type counters struct {
	// core.Engine.Stats
	requests, full, delta, basicRebases, anonCompleted int64
	// core.Engine.DeltaCacheStats
	memoHits, memoMisses, memoCoalesced, memoInvalidations int64
	// core.Engine.GraphStats
	graphDirect, graphComposed, graphFallback int64
	// core.Engine.StoreStats / SpillStats
	evictions, prunes, spills, faultIns int64
	// engine registry counters
	classifyProbes, basesInstalled int64
	// cluster.Counters
	owned, forwarded, forwardErrors, remoteBase int64
	// deltaclient.Stats over every user
	clientRequests, clientDelta, clientChain, clientFull int64
	payloadBytes, baseBytes                              int64
	// bench's own
	dials int64
}

func (s *stack) counters() counters {
	var c counters
	for _, n := range s.nodes {
		st := n.eng.Stats()
		c.requests += st.Requests
		c.full += st.FullResponses
		c.delta += st.DeltaResponses
		c.basicRebases += st.BasicRebases
		c.anonCompleted += st.AnonCompleted
		dc := n.eng.DeltaCacheStats()
		c.memoHits += dc.Hits
		c.memoMisses += dc.Misses
		c.memoCoalesced += dc.Coalesced
		c.memoInvalidations += dc.Invalidations
		g := n.eng.GraphStats()
		c.graphDirect += g.Direct
		c.graphComposed += g.Composed
		c.graphFallback += g.FallbackFull
		ss := n.eng.StoreStats()
		c.evictions += ss.Evictions
		c.prunes += ss.Prunes
		ts := n.eng.SpillStats()
		c.spills += ts.Spills
		c.faultIns += ts.FaultIns
		c.classifyProbes += n.eng.Metrics().Counter("classify.probes").Value()
		c.basesInstalled += n.eng.Metrics().Counter("bases.installed").Value()
		if n.cluster != nil {
			c.owned += n.cluster.Ctr.Owned.Value()
			c.forwarded += n.cluster.Ctr.Forwarded.Value()
			c.forwardErrors += n.cluster.Ctr.ForwardErrors.Value()
			c.remoteBase += n.cluster.Ctr.RemoteBase.Value()
		}
	}
	for _, cl := range s.clients {
		st := cl.Stats()
		c.clientRequests += int64(st.Requests)
		c.clientDelta += int64(st.DeltaResponses)
		c.clientChain += int64(st.ChainResponses)
		c.clientFull += int64(st.FullResponses)
		c.payloadBytes += st.PayloadBytes
		c.baseBytes += st.BaseBytes
	}
	c.dials = s.dials.Load()
	return c
}

// layerCounts turns the counts accumulated between two snapshots, and the
// layers' gauges as they stand now, into per-layer metrics.
func (s *stack) layerCounts(from, to counters, m map[string]float64) {
	d := func(a, b int64) float64 { return float64(b - a) }
	clientReqs := d(from.clientRequests, to.clientRequests)
	m["deltaclient.payload_bytes_per_req"] = ratio(d(from.payloadBytes, to.payloadBytes), clientReqs)
	m["deltaclient.base_bytes_per_req"] = ratio(d(from.baseBytes, to.baseBytes), clientReqs)
	m["deltaclient.chain_frac"] = ratio(d(from.clientChain, to.clientChain), clientReqs)
	m["deltaserver.dials"] = d(from.dials, to.dials)

	routed := d(from.owned, to.owned) + d(from.forwarded, to.forwarded) + d(from.forwardErrors, to.forwardErrors)
	m["cluster.forward_frac"] = ratio(d(from.forwarded, to.forwarded), routed)
	m["cluster.forward_errors"] = d(from.forwardErrors, to.forwardErrors)
	m["cluster.remote_base"] = d(from.remoteBase, to.remoteBase)

	engineReqs := d(from.requests, to.requests)
	m["core.delta_frac"] = ratio(d(from.delta, to.delta), engineReqs)
	m["core.full_frac"] = ratio(d(from.full, to.full), engineReqs)
	m["core.basic_rebases"] = d(from.basicRebases, to.basicRebases)
	consults := d(from.memoHits, to.memoHits) + d(from.memoMisses, to.memoMisses) + d(from.memoCoalesced, to.memoCoalesced)
	m["deltacache.hit_frac"] = ratio(d(from.memoHits, to.memoHits), consults)
	m["deltacache.coalesced"] = d(from.memoCoalesced, to.memoCoalesced)
	m["deltacache.invalidations"] = d(from.memoInvalidations, to.memoInvalidations)
	m["store.evictions"] = d(from.evictions, to.evictions)
	m["store.prunes"] = d(from.prunes, to.prunes)
	m["store.spills"] = d(from.spills, to.spills)
	m["store.faultins"] = d(from.faultIns, to.faultIns)
	m["graph.direct"] = d(from.graphDirect, to.graphDirect)
	m["graph.composed"] = d(from.graphComposed, to.graphComposed)
	m["graph.fallback_full"] = d(from.graphFallback, to.graphFallback)
	m["classify.probes_per_req"] = ratio(d(from.classifyProbes, to.classifyProbes), engineReqs)
	m["basefile.installs"] = d(from.basesInstalled, to.basesInstalled)
	m["anonymize.completed"] = d(from.anonCompleted, to.anonCompleted)

	var storage, memoBytes, resident, disk, edge int64
	classes := 0
	for _, n := range s.nodes {
		st := n.eng.Stats()
		storage += st.StorageBytes
		classes += st.Classes
		memoBytes += n.eng.DeltaCacheStats().Bytes
		resident += n.eng.StoreStats().Resident.Total
		disk += n.eng.SpillStats().DiskBytes
		edge += n.eng.GraphStats().EdgeBytes
	}
	m["core.storage_mb"] = float64(storage) / mb
	m["deltacache.mb"] = float64(memoBytes) / mb
	m["store.resident_mb"] = float64(resident) / mb
	m["store.disk_mb"] = float64(disk) / mb
	m["graph.edge_mb"] = float64(edge) / mb
	m["classify.classes"] = float64(classes)
}

// runtimeUse is the Go runtime's allocation and GC activity so far.
type runtimeUse struct {
	mallocs, bytes, pauseNS uint64
	cycles                  uint32
}

func readRuntime() runtimeUse {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return runtimeUse{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, pauseNS: ms.PauseTotalNs, cycles: ms.NumGC}
}

func runtimeMetrics(from, to runtimeUse, reqs int, m map[string]float64) {
	m["runtime.allocs_per_req"] = ratio(float64(to.mallocs-from.mallocs), float64(reqs))
	m["runtime.alloc_kb_per_req"] = ratio(float64(to.bytes-from.bytes)/1024, float64(reqs))
	m["runtime.gc_pause_ms_total"] = float64(to.pauseNS-from.pauseNS) / 1e6
	m["runtime.gc_cycles"] = float64(to.cycles - from.cycles)
}

// liveHeapMB is HeapAlloc after forced collection: what the whole
// in-process tier — engines, servers, and every client's base-file cache —
// keeps alive. Two collections, because a sync.Pool's contents survive one
// (and how full the codec pools are is an accident of timing).
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / mb
}
