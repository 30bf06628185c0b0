// Package store is the ownership layer for the engine's per-class serving
// state. The paper's scalability argument is that a delta-server stores one
// base-file per class instead of one per document — but "one per class" is
// still unbounded when classes keep arriving, so production storage must be
// a governed resource: every resident byte is accounted, and a configurable
// budget triggers graceful degradation (base-version pruning, then whole-
// class eviction) instead of unbounded growth.
//
// The package provides:
//
//   - Accountant: a byte-accurate, category-split ledger (distributable
//     base versions, selector-held documents, codec indexes) updated with
//     atomics by the owning entries.
//   - Table: the sharded key→Entry class table plus its accountant. With a
//     byte budget, Maintain prunes redundant per-class payload first, then
//     runs CLOCK (second-chance) eviction of whole classes until resident
//     bytes fit the budget again, keeping an eviction log for the admin
//     endpoint; without one, Maintain is a no-op.
//
// Entries are never deleted from the table: eviction strips an entry's
// payload (Entry.Evict) and leaves the entry resident so its identity,
// counters, and version numbering survive — the degradation contract is
// that an evicted class falls back to full responses and re-warms from
// traffic, never erroring and never reusing a version number.
package store

import (
	"sync"
	"sync/atomic"
	"time"
)

// Usage is a point-in-time snapshot of the accountant's ledger.
type Usage struct {
	// BaseBytes is distributable (installed) base-file version bytes.
	BaseBytes int64 `json:"baseBytes"`
	// CandBytes is selector-held document bytes: sampled candidates,
	// reference samples, and the selector's working base.
	CandBytes int64 `json:"candidateBytes"`
	// IndexBytes is codec index bytes built over installed base versions.
	IndexBytes int64 `json:"indexBytes"`
	// DeltaBytes is memoized compressed-delta bytes retained by the
	// per-class delta caches.
	DeltaBytes int64 `json:"deltaBytes"`
	// EdgeBytes is version-graph edge-delta bytes: cached deltas between
	// adjacent retained base versions, reused to compose chains.
	EdgeBytes int64 `json:"edgeBytes"`
	// Total is the sum of the categories.
	Total int64 `json:"total"`
}

// Accountant tracks resident bytes by category. All methods are atomic and
// safe for concurrent use; deltas may be negative. The zero value is ready
// to use.
type Accountant struct {
	base  atomic.Int64
	cand  atomic.Int64
	index atomic.Int64
	delta atomic.Int64
	edge  atomic.Int64
}

// AddBase adjusts the distributable base-version byte count.
func (a *Accountant) AddBase(delta int64) { a.base.Add(delta) }

// AddCand adjusts the selector-held document byte count.
func (a *Accountant) AddCand(delta int64) { a.cand.Add(delta) }

// AddIndex adjusts the codec index byte count.
func (a *Accountant) AddIndex(delta int64) { a.index.Add(delta) }

// AddDelta adjusts the memoized-delta byte count.
func (a *Accountant) AddDelta(delta int64) { a.delta.Add(delta) }

// AddEdge adjusts the version-graph edge-delta byte count.
func (a *Accountant) AddEdge(delta int64) { a.edge.Add(delta) }

// Total returns the resident byte total across all categories.
func (a *Accountant) Total() int64 {
	return a.base.Load() + a.cand.Load() + a.index.Load() + a.delta.Load() + a.edge.Load()
}

// Usage returns a snapshot of the ledger. The categories are read
// independently, so a concurrent mutation can skew Total by one in-flight
// delta; callers use it for reporting, not enforcement.
func (a *Accountant) Usage() Usage {
	u := Usage{
		BaseBytes:  a.base.Load(),
		CandBytes:  a.cand.Load(),
		IndexBytes: a.index.Load(),
		DeltaBytes: a.delta.Load(),
		EdgeBytes:  a.edge.Load(),
	}
	u.Total = u.BaseBytes + u.CandBytes + u.IndexBytes + u.DeltaBytes + u.EdgeBytes
	return u
}

// Entry is one class's serving state as the store sees it: a resident-byte
// ledger plus two levels of release. Implementations must be safe for
// concurrent use and must keep the owning Accountant in sync with every
// byte they retain or release.
type Entry interface {
	// ResidentBytes reports the entry's current resident footprint.
	ResidentBytes() int64
	// Prune drops redundant payload — old base-file versions, sampled
	// candidate documents — while keeping the entry serving deltas
	// against its newest base. Returns the bytes freed.
	Prune() int64
	// Evict drops all resident payload. The entry must keep serving
	// (full responses) and re-warm from traffic; version numbering must
	// survive so a re-warmed entry never reuses a version. Returns the
	// bytes freed.
	Evict() int64
}

// Stats is a reporting snapshot of a Table.
type Stats struct {
	// Budget is the byte budget (0 = unbudgeted).
	Budget int64 `json:"budget"`
	// Resident is the accountant's current ledger.
	Resident Usage `json:"residentBytes"`
	// Classes is the number of entries (resident or evicted).
	Classes int `json:"classes"`
	// ResidentClasses is the number of entries with resident payload.
	ResidentClasses int `json:"residentClasses"`
	// Prunes and Evictions count budget-driven maintenance actions.
	Prunes    int64 `json:"prunes"`
	Evictions int64 `json:"evictions"`
	// Log is the most recent maintenance actions, oldest first.
	Log []EvictionRecord `json:"recentEvictions,omitempty"`
}

// EvictionRecord is one entry of the maintenance log.
type EvictionRecord struct {
	Key        string    `json:"key"`
	Kind       string    `json:"kind"` // "prune" or "evict"
	FreedBytes int64     `json:"freedBytes"`
	At         time.Time `json:"at"`
}

// evictionLogSize bounds the maintenance log kept for the admin endpoint.
const evictionLogSize = 64

// shardCount sizes the sharded table. A power of two so the shard pick is
// a mask; 64 shards keep cross-class contention negligible well past the
// goroutine counts a delta-server front runs.
const shardCount = 64

// shardOf maps a key to its shard index (FNV-1a).
func shardOf(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h & (shardCount - 1)
}

// slot wraps one entry with its CLOCK reference bit.
type slot struct {
	key   string
	entry Entry
	ref   atomic.Bool // set on access, cleared by the eviction sweep
}

type mapShard struct {
	mu    sync.RWMutex
	slots map[string]*slot
}

// Table is the class table: a sharded key→Entry map and its byte ledger,
// governed by a byte budget when one is set. It is safe for concurrent use.
//
// Entries stay in the table after eviction; only their payload is released.
// The eviction ring therefore only ever grows, and an evicted entry that
// re-warms from traffic is a normal CLOCK citizen again.
type Table struct {
	acct   Accountant
	shards [shardCount]mapShard
	budget int64 // 0: unbudgeted, no ring
	now    func() time.Time

	// maintMu admits one maintainer at a time; contenders skip (TryLock)
	// so a request's hot path never queues behind an eviction sweep.
	maintMu sync.Mutex

	// mu guards the ring, the clock hand, and the log. Lock order is
	// shard.mu → mu (GetOrCreate registers under the shard write lock),
	// and Maintain never touches shard locks.
	mu   sync.Mutex
	ring []*slot
	hand int
	log  [evictionLogSize]EvictionRecord
	logN int64 // total records ever written; log[(logN-1)%size] is newest

	prunes    atomic.Int64
	evictions atomic.Int64
}

// NewTable returns an empty class table that keeps resident bytes at or
// under budget (bytes); 0 means unbudgeted. now supplies timestamps for the
// eviction log; nil means time.Now.
func NewTable(budget int64, now func() time.Time) *Table {
	if now == nil {
		now = time.Now
	}
	t := &Table{budget: budget, now: now}
	for i := range t.shards {
		t.shards[i].slots = make(map[string]*slot)
	}
	return t
}

// Get returns the entry for key, if present, marking it recently-used for
// the eviction policy. The fast path is one shard read lock and one atomic
// store for the reference bit; it does not allocate.
func (t *Table) Get(key string) (Entry, bool) {
	sh := &t.shards[shardOf(key)]
	sh.mu.RLock()
	s := sh.slots[key]
	sh.mu.RUnlock()
	if s == nil {
		return nil, false
	}
	s.ref.Store(true)
	return s.entry, true
}

// GetOrCreate returns the entry for key, calling create (exactly once per
// key) to make it when absent. created reports whether this call created
// it. The fast path is Get; creation re-checks under the shard write lock.
func (t *Table) GetOrCreate(key string, create func() Entry) (e Entry, created bool) {
	if e, ok := t.Get(key); ok {
		return e, false
	}
	sh := &t.shards[shardOf(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if s, ok := sh.slots[key]; ok {
		s.ref.Store(true)
		return s.entry, false
	}
	s := &slot{key: key, entry: create()}
	s.ref.Store(true)
	sh.slots[key] = s
	if t.budget > 0 {
		t.mu.Lock()
		t.ring = append(t.ring, s)
		t.mu.Unlock()
	}
	return s.entry, true
}

// ForEach calls fn for every entry until fn returns false. fn runs with
// internal locks held and must not call back into the table.
func (t *Table) ForEach(fn func(key string, e Entry) bool) {
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for k, s := range sh.slots {
			if !fn(k, s.entry) {
				sh.mu.RUnlock()
				return
			}
		}
		sh.mu.RUnlock()
	}
}

// Len returns the number of entries.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		n += len(sh.slots)
		sh.mu.RUnlock()
	}
	return n
}

// Accountant returns the table's byte ledger. Entries update it.
func (t *Table) Accountant() *Accountant { return &t.acct }

// over reports whether resident bytes exceed a set budget.
func (t *Table) over() bool { return t.budget > 0 && t.acct.Total() > t.budget }

// Maintain enforces the budget: while resident bytes exceed it, it degrades
// storage in two passes and returns the bytes freed (0 when under budget or
// unbudgeted). Call it with no entry locks held.
//
//	Pass 1 (prune): every entry drops redundant payload — old base-file
//	versions and sampled candidate documents — cheapest degradation first,
//	since a pruned class keeps serving deltas against its newest base.
//	Pass 2 (CLOCK): second-chance eviction over the ring. An entry whose
//	reference bit is set (touched since the last sweep) is spared once;
//	on the second encounter its whole payload is released and the class
//	degrades to full responses until traffic re-warms it.
//
// Only one maintainer sweeps at a time; a contender that loses the lock
// returns immediately rather than queueing. Its freshly installed bytes are
// still collected: an install always precedes the loser's lock attempt, and
// the attempt can only fail while the winner holds the lock, so the
// winner's post-release budget re-check observes the install and triggers
// another sweep. The enforcement bound is therefore: once every Maintain
// call has returned, resident bytes are at or under budget.
//
// A sweep frees bytes whenever any entry holds them (the hard pass below
// ignores reference bits once the polite passes fail), so a zero-freed
// sweep means every ringed entry is empty; remaining over budget then can
// only mean a misaccounted entry, and giving up beats spinning.
func (t *Table) Maintain() int64 {
	var freed int64
	for t.over() {
		if !t.maintMu.TryLock() {
			return freed // the lock holder re-checks after it releases
		}
		f := t.sweep()
		t.maintMu.Unlock()
		freed += f
		if f == 0 {
			break
		}
	}
	return freed
}

// sweep runs one prune pass and one CLOCK pass over a snapshot of the
// ring and returns the bytes freed. The caller holds maintMu.
func (t *Table) sweep() int64 {
	t.mu.Lock()
	ring := t.ring[:len(t.ring):len(t.ring)]
	hand := t.hand
	t.mu.Unlock()
	n := len(ring)
	if n == 0 {
		return 0
	}

	var freed int64
	for i := 0; i < n && t.over(); i++ {
		s := ring[(hand+i)%n]
		if f := s.entry.Prune(); f > 0 {
			freed += f
			t.prunes.Add(1)
			t.record("prune", s.key, f)
		}
	}
	for i := 0; i < 2*n && t.over(); i++ {
		s := ring[hand]
		hand = (hand + 1) % n
		if s.ref.Swap(false) {
			continue // second chance: touched since the last sweep
		}
		if s.entry.ResidentBytes() == 0 {
			continue // already empty; nothing to release
		}
		f := s.entry.Evict()
		freed += f
		t.evictions.Add(1)
		t.record("evict", s.key, f)
	}
	// Hard pass: still over budget with every entry recently touched —
	// concurrent traffic can re-set reference bits faster than the
	// second-chance pass clears them, sparing everything. The budget is a
	// cap, not a preference, so evict regardless of recency; victims
	// re-warm from traffic like any other evicted class.
	for i := 0; i < n && t.over(); i++ {
		s := ring[hand]
		hand = (hand + 1) % n
		if s.entry.ResidentBytes() == 0 {
			continue
		}
		f := s.entry.Evict()
		freed += f
		t.evictions.Add(1)
		t.record("evict", s.key, f)
	}
	t.mu.Lock()
	t.hand = hand
	t.mu.Unlock()
	return freed
}

// record appends one action to the bounded maintenance log.
func (t *Table) record(kind, key string, freedBytes int64) {
	t.mu.Lock()
	t.log[t.logN%evictionLogSize] = EvictionRecord{
		Key:        key,
		Kind:       kind,
		FreedBytes: freedBytes,
		At:         t.now(),
	}
	t.logN++
	t.mu.Unlock()
}

// Stats snapshots the table for reporting. An unbudgeted table never
// evicts, so every entry counts as resident.
func (t *Table) Stats() Stats {
	st := Stats{
		Budget:    t.budget,
		Resident:  t.acct.Usage(),
		Prunes:    t.prunes.Load(),
		Evictions: t.evictions.Load(),
	}
	t.ForEach(func(_ string, e Entry) bool {
		st.Classes++
		if t.budget == 0 || e.ResidentBytes() > 0 {
			st.ResidentClasses++
		}
		return true
	})
	t.mu.Lock()
	total := t.logN
	kept := total
	if kept > evictionLogSize {
		kept = evictionLogSize
	}
	st.Log = make([]EvictionRecord, 0, kept)
	for i := total - kept; i < total; i++ {
		st.Log = append(st.Log, t.log[i%evictionLogSize])
	}
	t.mu.Unlock()
	return st
}
