// Package deltacache memoizes encoded deltas with singleflight coalescing.
//
// The paper's economics assume millions of clients share a handful of
// (class, baseVersion) pairs, so the same delta is encoded over and over.
// This package turns that repetition into a lookup: the compressed delta
// for one (fromVersion, toVersion, document) key is computed once and every
// subsequent — or concurrent — request for it shares the same immutable
// payload bytes.
//
// The cache is a per-class structure owned by the engine's class state.
// Its concurrency contract:
//
//   - Acquire either returns a committed result (StatusHit), blocks-free
//     hands back an in-flight Flight to wait on (StatusCoalesced), or
//     makes the caller the leader for the key (StatusLead). Exactly one
//     leader exists per key per flight.
//   - The leader encodes with no cache lock held and calls Commit, which
//     publishes the result and wakes every waiter. Waiters share the
//     leader's result verbatim — including its reason for serving a full
//     response instead — so a thundering herd performs one encode total.
//   - Purge invalidates everything: committed payloads are uncharged and
//     dropped; in-flight entries are unmapped but their waiters still
//     receive the leader's result (the result was correct for the state
//     snapshot the leader encoded against; it is simply not retained).
//
// Cached payloads are immutable and shared by aliasing, extending the
// BaseFileView rules (DESIGN.md §9): callers must never mutate a payload
// obtained from the cache, and the engine never stores pooled scratch in
// it. Retained bytes are reported through an accounting callback so the
// store's budget governor can reclaim them.
//
// Only the standard library is used.
package deltacache

import (
	"sync"
	"sync/atomic"
)

// Key identifies one memoizable encode as an explicit (From, To) version
// edge. From is the base version the client holds; To is the retained base
// version the encode targets — 0 for a direct encode against From's own
// bytes, or the graph's current version for a composed chain whose cached
// edges rewrite From up to To. DocHash/DocLen fingerprint the current
// document content (the final hop — documents arrive per-request, so
// content stands in for a version number). To alone separates a chain
// (To > 0) from a direct encode (To == 0), so the key needs no format.
type Key struct {
	From    int
	To      int
	DocHash uint64
	DocLen  int
}

// Result is the shared outcome of one encode. Reason is the engine's
// reason for the response, opaque to the cache. A result with a Payload is
// a delta and the only kind retained after commit; one without is shared
// with waiters but not retained, so the next request re-probes engine
// state. Payload is immutable and aliased by every sharer; callers must not
// modify it.
type Result struct {
	Reason  uint8
	Payload []byte
	Gzipped bool
}

// Status reports how Acquire resolved a key.
type Status uint8

const (
	// StatusHit: a committed result was returned immediately.
	StatusHit Status = iota
	// StatusCoalesced: another goroutine is encoding this key; call
	// Flight.Wait for its result.
	StatusCoalesced
	// StatusLead: the caller owns the encode for this key and must call
	// Commit exactly once with the outcome.
	StatusLead
)

// Flight is one in-flight encode. The leader commits it; waiters wait on
// it. A Flight stays valid even if the cache is purged mid-encode.
type Flight struct {
	key   Key
	done  chan struct{}
	res   Result // written by Commit before done closes
	inMap bool   // guarded by the owning cache's mu
}

// Wait blocks until the leader commits and returns the shared result.
func (f *Flight) Wait() Result {
	<-f.done
	return f.res
}

// Stats is a point-in-time snapshot of one cache.
type Stats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Coalesced     uint64 `json:"coalesced"`
	Invalidations uint64 `json:"invalidations"`
	Entries       int    `json:"entries"`
	Bytes         int64  `json:"bytes"`
}

// Cache memoizes encode results for one class. Safe for concurrent use.
type Cache struct {
	mu         sync.Mutex
	m          map[Key]*Flight
	maxEntries int
	bytes      int64       // committed payload bytes currently retained
	onBytes    func(int64) // accounting callback; called under mu

	hits          atomic.Uint64
	misses        atomic.Uint64
	coalesced     atomic.Uint64
	invalidations atomic.Uint64
}

// New returns an empty cache holding at most maxEntries committed deltas
// (0 or negative means a modest default). onBytes, if non-nil, is called
// with the byte delta every time retained payload bytes change; it runs
// under the cache lock and must not call back into the cache.
func New(maxEntries int, onBytes func(int64)) *Cache {
	if maxEntries <= 0 {
		maxEntries = 256
	}
	return &Cache{
		m:          make(map[Key]*Flight),
		maxEntries: maxEntries,
		onBytes:    onBytes,
	}
}

// Acquire resolves key.
//
//	StatusHit       → res is the committed result; fl is nil.
//	StatusCoalesced → fl is an in-flight encode; call fl.Wait().
//	StatusLead      → the caller must encode and call Commit(fl, ...).
func (c *Cache) Acquire(key Key) (res Result, fl *Flight, st Status) {
	c.mu.Lock()
	if f, ok := c.m[key]; ok {
		select {
		case <-f.done:
			c.mu.Unlock()
			c.hits.Add(1)
			return f.res, nil, StatusHit
		default:
			c.mu.Unlock()
			c.coalesced.Add(1)
			return Result{}, f, StatusCoalesced
		}
	}
	f := &Flight{key: key, done: make(chan struct{}), inMap: true}
	if len(c.m) >= c.maxEntries {
		c.evictOneLocked()
	}
	c.m[key] = f
	c.mu.Unlock()
	c.misses.Add(1)
	return Result{}, f, StatusLead
}

// Commit publishes the leader's result: waiters wake with it, and a
// result with a payload still present in the map is retained and charged
// to the accountant. Results without one are shared but not retained. Must be
// called exactly once per StatusLead flight, even on failure paths —
// otherwise coalesced waiters block forever.
func (c *Cache) Commit(fl *Flight, res Result) {
	c.mu.Lock()
	fl.res = res
	if fl.inMap {
		if len(res.Payload) > 0 {
			c.addBytesLocked(int64(len(res.Payload)))
		} else {
			delete(c.m, fl.key)
			fl.inMap = false
		}
	}
	c.mu.Unlock()
	close(fl.done)
}

// evictOneLocked drops one committed entry to make room. In-flight
// entries are skipped (they hold no payload and will commit soon); if
// every entry is in flight the cap is allowed to overflow by one.
func (c *Cache) evictOneLocked() {
	for k, f := range c.m {
		select {
		case <-f.done:
		default:
			continue
		}
		c.addBytesLocked(-int64(len(f.res.Payload)))
		delete(c.m, k)
		f.inMap = false
		c.invalidations.Add(1)
		return
	}
}

// addBytesLocked adjusts the retained-byte ledger and notifies the
// accounting callback. Caller holds mu.
func (c *Cache) addBytesLocked(d int64) {
	c.bytes += d
	if c.onBytes != nil {
		c.onBytes(d)
	}
}

// Purge invalidates every cached and in-flight entry and returns the
// payload bytes released. In-flight leaders still commit and wake their
// waiters; their results just aren't retained.
func (c *Cache) Purge() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	freed := c.bytes
	if c.bytes != 0 {
		c.addBytesLocked(-c.bytes)
	}
	n := len(c.m)
	for k, f := range c.m {
		f.inMap = false
		delete(c.m, k)
	}
	c.invalidations.Add(uint64(n))
	return freed
}

// Stats snapshots the cache.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries, bytes := len(c.m), c.bytes
	c.mu.Unlock()
	return Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Coalesced:     c.coalesced.Load(),
		Invalidations: c.invalidations.Load(),
		Entries:       entries,
		Bytes:         bytes,
	}
}
