// Disk-tier integration: spill capture on eviction, singleflight fault-in
// on the read path, whole-engine checkpoints, and tier stats. The tier is
// the engine's only persistence: a restart on the same SpillDir resumes
// from whatever records evictions and checkpoints left there.
// The tier itself (segments, blob codec, index, disk budget) lives in
// internal/store; this file owns the ownership rules — when a record may
// be installed into a class and what happens when it may not.
package core

import (
	"encoding/json"
	"time"

	"cbde/internal/basefile"
	"cbde/internal/classify"
	"cbde/internal/store"
)

// checkpointGrouping appends the classify manager's exported grouping as
// the tier's record under store.GroupingKey. Class keys embed a
// creation-order sequence number, so without it a restarted engine re-mints
// keys by arrival order and the recovered class records become unreachable
// in grouped mode. No-op for classless engines.
func (e *Engine) checkpointGrouping() error {
	if e.classify == nil {
		return nil
	}
	data, err := json.Marshal(e.classify.Export())
	if err != nil {
		return err
	}
	return e.spill.Append(store.ClassRecord{Key: store.GroupingKey, SelectorBase: data})
}

// loadGrouping imports the tier's grouping record into the freshly
// constructed engine's classify manager. A missing or corrupt record is
// not an error — the engine boots with empty grouping and re-learns, and
// class records its freshly minted keys miss degrade like plain evictions.
func (e *Engine) loadGrouping() {
	rec, ok := e.spill.Get(store.GroupingKey)
	if !ok {
		return
	}
	var ex classify.Exported
	if err := json.Unmarshal(rec.SelectorBase, &ex); err != nil {
		return
	}
	_ = e.classify.Import(ex) // only fails on a non-empty manager
}

// spillRecordLocked captures the class's spillable state: installed base
// versions, the selector's working base, version counter, and stored
// samples. Returns nil when the class holds no bytes (never warmed, or
// already stripped). Callers hold cs.mu; the returned slices alias
// immutable buffers, so the record survives the strip that follows.
func (cs *classState) spillRecordLocked() *store.ClassRecord {
	st := cs.selector.SpillState()
	if cs.distVersion == 0 && len(st.Base) == 0 && len(st.Candidates) == 0 {
		return nil
	}
	rec := &store.ClassRecord{
		Key:             cs.id,
		DistVersion:     cs.distVersion,
		SelectorVersion: st.Version,
		SelectorTag:     st.BaseTag,
		SelectorBase:    st.Base,
	}
	for v, bv := range cs.bases {
		rec.Bases = append(rec.Bases, store.VersionedBlob{Version: v, Bytes: bv.bytes})
	}
	for _, ge := range cs.edges {
		rec.Edges = append(rec.Edges, store.EdgeBlob{
			From:    ge.from,
			To:      ge.to,
			Payload: ge.payload,
			Gzipped: ge.gzipped,
			RawLen:  ge.rawLen,
		})
	}
	for _, d := range st.Candidates {
		rec.Candidates = append(rec.Candidates, store.TaggedDoc{Tag: d.Tag, Bytes: d.Bytes})
	}
	for _, d := range st.Refs {
		rec.Refs = append(rec.Refs, store.TaggedDoc{Tag: d.Tag, Bytes: d.Bytes})
	}
	return rec
}

// faultIn restores a spilled class from the disk tier, returning the
// payload bytes re-charged to the Accountant (0 when nothing was
// installed). The per-class faultMu makes this a singleflight: a flash
// crowd on a spilled class performs exactly one disk read + decode — the
// leader installs while every follower blocks here, then re-checks the
// flag and proceeds with the class already warm.
func (e *Engine) faultIn(cs *classState, now time.Time) int64 {
	cs.faultMu.Lock()
	defer cs.faultMu.Unlock()
	if !cs.spilled.Load() {
		return 0 // the leader already faulted the class in
	}
	// Clear the flag only on the way out (after the install below has
	// published under cs.mu): a follower that observes it set blocks on
	// faultMu above and re-checks, so no request can slip past an
	// in-progress install and serve a full response it didn't need to.
	defer cs.spilled.Store(false)
	// Take removes the index entry whatever happens next, so a stale blob
	// can never resurrect a class that moved on in memory: the next
	// eviction appends a fresh record.
	rec, ok := cs.spill.Take(cs.id)
	if !ok {
		// Dropped by disk-budget compaction or torn/corrupt on disk: the
		// class degrades exactly like a plain eviction and re-warms from
		// traffic.
		return 0
	}

	cs.mu.Lock()
	defer cs.mu.Unlock()
	base, cur := cs.selector.Base()
	if cs.distVersion != 0 || len(cs.bases) != 0 || base != nil || rec.SelectorVersion < cur {
		// The class warmed by other means first — a request that slipped in
		// before the eviction's spilled flag was set — or it is empty
		// again but its counter has moved past the record's: the record
		// predates a re-warm whose bytes clients now hold under the newer
		// number, and installing its selector base would pair that number
		// with bytes nobody holds. Either way the record's bytes are stale,
		// but its version counter is a high-water mark that must survive:
		// no version number may ever be reused for different bytes.
		cs.selector.RaiseVersion(rec.SelectorVersion)
		return 0
	}

	var restored int64
	for _, b := range rec.Bases {
		if b.Version <= 0 || len(b.Bytes) == 0 {
			continue
		}
		cs.bases[b.Version] = &baseVersion{bytes: b.Bytes, cs: cs}
		cs.addBase(int64(len(b.Bytes)))
		restored += int64(len(b.Bytes))
	}
	if bv, ok := cs.bases[rec.DistVersion]; ok {
		cs.distVersion = rec.DistVersion
		cs.installedAt = now
		cs.evicted = false
		if cs.class != nil {
			cs.class.SetMatchBase(bv.bytes)
		}
	}
	// Version-graph edges restore only when both endpoint versions made it
	// back; a dangling edge would break the snapshot walk's invariants.
	for _, eb := range rec.Edges {
		if eb.From <= 0 || eb.To <= eb.From || len(eb.Payload) == 0 {
			continue
		}
		if _, ok := cs.bases[eb.From]; !ok {
			continue
		}
		if _, ok := cs.bases[eb.To]; !ok {
			continue
		}
		cs.edges[eb.From] = &versionEdge{
			from:    eb.From,
			to:      eb.To,
			payload: eb.Payload,
			gzipped: eb.Gzipped,
			rawLen:  eb.RawLen,
		}
		cs.addEdge(int64(len(eb.Payload)))
		restored += int64(len(eb.Payload))
	}
	// Selector samples and base re-charge the ledger through the
	// selector's OnStoredBytes callback; the version counter merges as a
	// max so numbering continues monotonically.
	sst := basefile.SpillState{
		Base:    rec.SelectorBase,
		BaseTag: rec.SelectorTag,
		Version: rec.SelectorVersion,
	}
	for _, d := range rec.Candidates {
		sst.Candidates = append(sst.Candidates, basefile.SpillDoc{Bytes: d.Bytes, Tag: d.Tag})
		restored += int64(len(d.Bytes))
	}
	for _, d := range rec.Refs {
		sst.Refs = append(sst.Refs, basefile.SpillDoc{Bytes: d.Bytes, Tag: d.Tag})
		restored += int64(len(d.Bytes))
	}
	restored += int64(len(rec.SelectorBase))
	cs.selector.RestoreSpill(sst, now)
	// Anonymization state is not spilled: the distributable versions were
	// anonymized before they were ever distributed, and a selector version
	// past distVersion restarts its process from live traffic.
	cs.anonProc = nil
	cs.anonSource = 0
	cs.purgeDeltas()
	cs.faultIns++
	e.ctr.faultIns.Inc()
	return restored
}

// EvictClass forces one class through budget eviction — and, with the
// disk tier enabled, through a spill. It exists for operational tooling,
// benchmarks, and tests; budget maintenance normally decides evictions.
// Returns the bytes freed and whether the class exists.
func (e *Engine) EvictClass(classID string) (int64, bool) {
	cs, ok := e.lookup(classID)
	if !ok {
		return 0, false
	}
	return cs.Evict(), true
}

// Checkpoint appends the current record of every class to the disk tier
// without evicting or flagging anything, then the grouping record, so a
// process restarted on the same SpillDir — after a clean shutdown or a
// crash — resumes from this point: the class index recovers from segment
// headers alone and bodies fault in lazily. It is safe on a live engine;
// the next request to a checkpointed class touches no disk. Returns the
// number of class records written and the first append error.
func (e *Engine) Checkpoint() (int, error) {
	if e.spill == nil {
		return 0, nil
	}
	var n int
	var first error
	for _, cs := range e.states() {
		ok, err := cs.checkpoint()
		if err != nil && first == nil {
			first = err
		}
		if ok {
			n++
		}
	}
	if err := e.checkpointGrouping(); err != nil && first == nil {
		first = err
	}
	return n, first
}

// checkpoint appends the class's current state to the tier, under faultMu
// like Evict so the class's records land in capture order. A class whose
// spilled flag is set is skipped: its on-disk record is the truth. A
// stripped class without one (its spill append failed, or its record was
// dropped or corrupt) gets a counter-only record, so the version numbers
// it announced are never re-minted for different bytes after a restart.
// It reports whether a record was written.
func (cs *classState) checkpoint() (bool, error) {
	cs.faultMu.Lock()
	defer cs.faultMu.Unlock()
	if cs.spilled.Load() {
		return false, nil
	}
	cs.mu.RLock()
	rec := cs.spillRecordLocked()
	if rec == nil {
		if _, v := cs.selector.Base(); v > 0 {
			rec = &store.ClassRecord{Key: cs.id, SelectorVersion: v}
		}
	}
	cs.mu.RUnlock()
	if rec == nil {
		return false, nil // never warmed: nothing to keep
	}
	if err := cs.spill.Append(*rec); err != nil {
		return false, err
	}
	return true, nil
}

// SpillStats snapshots the disk tier. The zero value (Enabled false) is
// returned when the tier is disabled.
func (e *Engine) SpillStats() store.TierStats {
	if e.spill == nil {
		return store.TierStats{}
	}
	st := e.spill.Stats()
	st.FaultIns = e.ctr.faultIns.Value()
	return st
}

// Close releases the engine's disk tier, if any. The engine must not
// process requests afterwards.
func (e *Engine) Close() error {
	if e.spill == nil {
		return nil
	}
	return e.spill.Close()
}
