package core

import (
	"sort"
	"time"

	"cbde/internal/metrics"
)

// ClassStats is one class's row in the engine's per-class stats table: the
// live counterpart of the paper's per-class accounting (Tables II-IV) —
// delta hit rate, bytes in versus bytes shipped, the age of the base-file
// clients are holding, and how far anonymization has progressed.
type ClassStats struct {
	// ID is the class (or document, in classless modes) key.
	ID string `json:"id"`

	// Requests counts requests routed to the class.
	Requests int64 `json:"requests"`
	// DeltaHits counts delta responses; DeltaMisses counts full responses,
	// whatever their Reason.
	DeltaHits   int64 `json:"deltaHits"`
	DeltaMisses int64 `json:"deltaMisses"`

	// BytesIn is document bytes fetched from the origin for the class;
	// BytesShipped is payload bytes actually sent to clients. Their ratio
	// is the class's live Table II row.
	BytesIn      int64 `json:"bytesIn"`
	BytesShipped int64 `json:"bytesShipped"`

	// BaseVersion is the newest distributable base-file version (0 = none
	// yet); BaseAge is how long it has been serving; BaseBytes its size.
	BaseVersion int           `json:"baseVersion"`
	BaseAge     time.Duration `json:"baseAge"`
	BaseBytes   int           `json:"baseBytes"`

	// AnonActive reports an anonymization process in flight; AnonDone and
	// AnonNeeded are its comparison progress (Section V's N). Both zero
	// when anonymization is disabled or idle.
	AnonActive bool `json:"anonActive"`
	AnonDone   int  `json:"anonDone"`
	AnonNeeded int  `json:"anonNeeded"`

	// ResidentBytes is the class's accounted storage footprint (installed
	// base versions, selector-held documents, codec indexes). Evicted
	// reports the class currently degraded by budget maintenance — serving
	// full responses until traffic re-warms it — and Evictions/Rewarms
	// count how often it has left and re-entered the resident set.
	ResidentBytes int64 `json:"residentBytes"`
	Evicted       bool  `json:"evicted,omitempty"`
	Evictions     int64 `json:"evictions,omitempty"`
	Rewarms       int64 `json:"rewarms,omitempty"`

	// Spilled reports that the class's state lives in its disk-tier record
	// and its next request will fault it in instead of re-warming: it was
	// evicted into the tier, or recovered by a restart and not requested
	// since. (A checkpoint leaves a record too but does not set this.)
	// FaultIns counts how often the class has been restored from disk.
	Spilled  bool  `json:"spilled,omitempty"`
	FaultIns int64 `json:"faultIns,omitempty"`

	// Version-graph section: retained base versions and the cached edge
	// deltas between them, plus the class's ReasonDirect, ReasonChain and
	// ReasonVersionAgedOut counts.
	GraphVersions  int   `json:"graphVersions"`
	GraphEdges     int   `json:"graphEdges"`
	GraphEdgeBytes int64 `json:"graphEdgeBytes"`
	GraphDirect    int64 `json:"graphDirect"`
	GraphComposed  int64 `json:"graphComposed"`
	GraphFallback  int64 `json:"graphFallback"`
}

// Savings is the class's bandwidth savings fraction (1 - shipped/in), or 0
// before any traffic.
func (s ClassStats) Savings() float64 {
	if s.BytesIn == 0 {
		return 0
	}
	return 1 - float64(s.BytesShipped)/float64(s.BytesIn)
}

// classStats builds the stats row for one class. Takes cs.mu briefly.
func (e *Engine) classStats(cs *classState, now time.Time) ClassStats {
	var served reasonCounts
	served.add(cs)
	st := ClassStats{
		ID:          cs.id,
		Requests:    cs.ctr.requests.Value(),
		DeltaHits:   served.deltas(),
		DeltaMisses: served.fulls(),

		BytesIn:      cs.ctr.bytesIn.Value(),
		BytesShipped: cs.ctr.bytesShipped.Value(),

		GraphDirect:   served[ReasonDirect],
		GraphComposed: served[ReasonChain],
		GraphFallback: served[ReasonVersionAgedOut],
	}
	st.ResidentBytes = cs.res.Total()
	st.Spilled = cs.spilled.Load()
	st.GraphEdgeBytes = cs.res.Usage().EdgeBytes
	cs.mu.RLock()
	st.GraphVersions = len(cs.bases)
	st.GraphEdges = len(cs.edges)
	st.Evicted = cs.evicted
	st.Evictions = cs.evictions
	st.Rewarms = cs.rewarms
	st.FaultIns = cs.faultIns
	st.BaseVersion = cs.distVersion
	if cs.distVersion != 0 {
		if bv, ok := cs.bases[cs.distVersion]; ok {
			st.BaseBytes = len(bv.bytes)
		}
		if !cs.installedAt.IsZero() {
			if age := now.Sub(cs.installedAt); age > 0 {
				st.BaseAge = age
			}
		}
	}
	if cs.anonProc != nil {
		st.AnonActive = true
		st.AnonDone, st.AnonNeeded = cs.anonProc.Progress()
	}
	cs.mu.RUnlock()
	return st
}

// ClassStats returns the per-class stats row for classID. ok is false for
// an unknown class.
func (e *Engine) ClassStats(classID string) (ClassStats, bool) {
	cs, ok := e.lookup(classID)
	if !ok {
		return ClassStats{}, false
	}
	return e.classStats(cs, e.cfg.Now()), true
}

// AllClassStats returns every class's stats row, sorted by class ID so
// output is stable for dumps and diffs.
func (e *Engine) AllClassStats() []ClassStats {
	now := e.cfg.Now()
	states := e.states()
	out := make([]ClassStats, 0, len(states))
	for _, cs := range states {
		out = append(out, e.classStats(cs, now))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// collect contributes the computed metric series — values derived from live
// engine state rather than accumulated counters — to every exposition
// scrape: global bytes saved, class count and responses by reason, plus
// per-class delta hits and misses, base version/age and anonymization
// progress.
func (e *Engine) collect(c *metrics.Collection) {
	saved := e.ctr.bytesDirect.Value() - e.ctr.bytesDelta.Value() - e.ctr.bytesFull.Value()
	c.Counter("cbde_bytes_saved_total",
		"Client-facing bytes saved versus serving every document in full.",
		nil, float64(saved))

	st := e.cstore.Stats()
	for _, kind := range []struct {
		name  string
		value int64
	}{
		{"base", st.Resident.BaseBytes},
		{"cand", st.Resident.CandBytes},
		{"index", st.Resident.IndexBytes},
		{"delta", st.Resident.DeltaBytes},
		{"edge", st.Resident.EdgeBytes},
	} {
		c.Gauge("cbde_store_resident_bytes",
			"Resident class-storage bytes by kind (base versions, selector candidates, codec indexes, memoized deltas, graph edges).",
			[]metrics.Label{{Name: "kind", Value: kind.name}}, float64(kind.value))
	}
	c.Gauge("cbde_store_budget_bytes",
		"Configured class-storage byte budget (0 = unbudgeted).",
		nil, float64(st.Budget))
	c.Gauge("cbde_store_resident_classes",
		"Classes with resident storage (tracked classes minus evicted ones).",
		nil, float64(st.ResidentClasses))
	c.Counter("cbde_store_prunes_total",
		"Budget-driven class prunes (old base versions and samples dropped).",
		nil, float64(st.Prunes))
	c.Counter("cbde_store_evictions_total",
		"Budget-driven class evictions (all resident payload dropped).",
		nil, float64(st.Evictions))
	c.Counter("cbde_store_rewarms_total",
		"Evicted classes that regained a distributable base from traffic.",
		nil, float64(e.ctr.rewarms.Value()))
	c.Counter("cbde_delta_cache_hits_total",
		"Delta responses served from the memo cache without encoding.",
		nil, float64(e.ctr.memoHits.Value()))
	c.Counter("cbde_delta_cache_misses_total",
		"Memo-cache misses: requests that led a fresh delta encode.",
		nil, float64(e.ctr.memoMisses.Value()))
	c.Counter("cbde_delta_cache_coalesced_total",
		"Requests that coalesced onto another request's in-flight encode.",
		nil, float64(e.ctr.memoCoalesced.Value()))
	c.Counter("cbde_encode_target_bytes_total",
		"Document bytes run through the vdelta encoder.",
		nil, float64(e.ctr.encodeBytes.Value()))
	c.Counter("cbde_encode_replayed_bytes_total",
		"Encoded document bytes covered by replaying the URL's previous delta instead of searching.",
		nil, float64(e.ctr.encodeReplayed.Value()))

	// Disk-tier series exist only when the tier is configured, so -check
	// on untiered servers stays meaningful and dashboards can feature-
	// detect spill support.
	if e.spill != nil {
		ts := e.SpillStats()
		c.Counter("cbde_store_spills_total",
			"Records appended to the disk tier by evictions and checkpoints.",
			nil, float64(ts.Spills))
		c.Counter("cbde_store_faultin_total",
			"Spilled classes faulted back in from the disk tier.",
			nil, float64(ts.FaultIns))
		c.Counter("cbde_store_spill_drops_total",
			"Spilled classes lost to disk-budget segment compaction.",
			nil, float64(ts.Drops))
		c.Counter("cbde_store_spill_errors_total",
			"Spill append, read, or decode failures (the class degrades like a plain eviction).",
			nil, float64(ts.Errors))
		c.Gauge("cbde_store_disk_bytes",
			"Total bytes in spill segment files, including dead records.",
			nil, float64(ts.DiskBytes))
		c.Gauge("cbde_store_disk_live_bytes",
			"Bytes of spill records still referenced by the index.",
			nil, float64(ts.LiveBytes))
		c.Gauge("cbde_store_disk_budget_bytes",
			"Configured disk-tier byte budget (0 = unbounded).",
			nil, float64(ts.BudgetBytes))
		c.Gauge("cbde_store_spilled_classes",
			"Classes with a spill record indexed in the disk tier.",
			nil, float64(ts.SpilledClasses))
		c.Gauge("cbde_store_spill_segments",
			"Spill segment files on disk.",
			nil, float64(ts.Segments))
	}

	now := e.cfg.Now()
	states := e.states()
	c.Gauge("cbde_classes", "Classes currently tracked by the engine.",
		nil, float64(len(states)))
	var served reasonCounts
	for _, cs := range states {
		served.add(cs)
		st := e.classStats(cs, now)
		label := []metrics.Label{{Name: "class", Value: st.ID}}
		c.Counter("cbde_class_delta_hits_total",
			"Delta responses served for the class.",
			label, float64(st.DeltaHits))
		c.Counter("cbde_class_delta_misses_total",
			"Full responses served for the class, whatever their reason.",
			label, float64(st.DeltaMisses))
		c.Gauge("cbde_class_base_version",
			"Newest distributable base-file version for the class.",
			label, float64(st.BaseVersion))
		c.Gauge("cbde_class_base_age_seconds",
			"Age of the class's distributable base-file.",
			label, st.BaseAge.Seconds())
		if st.AnonNeeded > 0 {
			c.Gauge("cbde_class_anon_progress",
				"Comparisons completed over comparisons required by the running anonymization process.",
				label, float64(st.AnonDone)/float64(st.AnonNeeded))
		}
	}
	for r := ReasonDirect; r < numReasons; r++ {
		kind := KindFull
		if r.delta() {
			kind = KindDelta
		}
		c.Counter("cbde_responses_total",
			"Responses by kind and reason; the full ones are P_error broken down by cause.",
			[]metrics.Label{{Name: "kind", Value: kind.String()}, {Name: "reason", Value: r.String()}},
			float64(served[r]))
	}
}
