// Package basefile implements the online base-file selection algorithm of
// Section IV, its baselines, and the error-probability analysis.
//
// For each class the selector watches the stream of documents and maintains
// up to K sampled candidates (each request is sampled with probability p).
// The candidate that minimizes the sum of deltas against the other stored
// documents is the preferred base-file. A group-rebase installs it once the
// rebase-timeout since the previous rebase has expired; a basic-rebase is
// triggered externally when served deltas become relatively large, and
// flushes all stored samples.
//
// Two eviction refinements from footnote 3 are provided: periodically
// evicting a random stored document instead of the worst one, and the
// two-set variant that scores candidates against an independent reference
// set of random samples.
package basefile

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"cbde/internal/vdelta"
)

// EvictionPolicy selects which stored document leaves when the sample store
// is full (Section IV, footnote 3).
type EvictionPolicy int

const (
	// EvictWorst always evicts the stored document that maximizes the sum
	// of deltas (the worst base-file candidate). This is the basic scheme.
	EvictWorst EvictionPolicy = iota + 1
	// EvictPeriodicRandom behaves like EvictWorst but, at periodic
	// intervals, evicts a random stored document (excluding the current
	// base-file) to avoid storing K documents that are close to each other
	// but far from most class members.
	EvictPeriodicRandom
	// EvictTwoSet maintains two sets of K documents: base-file candidates
	// and an independent reference set that deltas are computed against.
	// The worst candidate and a random reference are evicted.
	EvictTwoSet
)

// String implements fmt.Stringer.
func (p EvictionPolicy) String() string {
	switch p {
	case EvictWorst:
		return "worst"
	case EvictPeriodicRandom:
		return "periodic-random"
	case EvictTwoSet:
		return "two-set"
	default:
		return fmt.Sprintf("EvictionPolicy(%d)", int(p))
	}
}

// Config parametrizes a Selector. The zero value is usable: defaults match
// the paper's experiments (p=0.2, K=8).
type Config struct {
	// SampleProb is p, the probability that a request's document becomes a
	// base-file candidate. Default 0.2 (the value used for Table III).
	// A negative value disables sampling entirely, degenerating the
	// selector to the first-response scheme plus basic-rebases — the
	// classless baseline uses this.
	SampleProb float64
	// MaxSamples is K, the maximum number of stored documents. Default 8.
	MaxSamples int
	// RebaseTimeout is the minimum interval between group-rebases. A
	// better candidate only takes over once this has expired. Default 0
	// (rebase whenever a better candidate exists).
	RebaseTimeout time.Duration
	// Eviction selects the eviction refinement. Default EvictWorst.
	Eviction EvictionPolicy
	// RandomEvictEvery applies to EvictPeriodicRandom: every n-th eviction
	// removes a random document instead of the worst. Default 4.
	RandomEvictEvery int
	// OnStoredBytes, when set, is called with the signed change in the
	// selector's resident document bytes — the working base plus stored
	// candidate and reference samples — whenever that footprint changes.
	// The store layer uses it for byte-accurate accounting. The callback
	// runs under the selector's lock and must not call back into it.
	OnStoredBytes func(delta int)
	// AsyncSampling moves candidate admission (the 2K delta computations
	// per sample) off the calling goroutine, as the paper prescribes:
	// "this calculation can be done offline" (Section IV). Observe then
	// reports Sampled but admission outcomes (evictions, group-rebases)
	// surface on later calls. At most one admission runs and one waits per
	// selector; a sample that finds both slots taken is dropped
	// (Stats.SamplesDropped). Use Quiesce in tests to drain pending work.
	AsyncSampling bool
	// AfterAsyncAdmit, when set with AsyncSampling, runs on the admission
	// goroutine after each asynchronous admission completes, with none of
	// the selector's locks held. An async admission installs document
	// bytes after the request that sampled them has finished its own store
	// maintenance, so the store layer uses this hook to re-enforce its
	// memory budget. Unlike OnStoredBytes it may call back into the
	// selector; Quiesce waits for it.
	AfterAsyncAdmit func()
	// Seed seeds the sampling RNG, for reproducible experiments.
	Seed uint64

	// VersionStride and VersionOffset stride version numbering across a
	// cluster of delta-servers: every version this selector mints is
	// ≡ VersionOffset (mod VersionStride). Giving each node a distinct
	// offset (its index in the sorted peer list) and stride = cluster size
	// makes (class, version) pairs globally unique, so when class ownership
	// moves — failover, then failback — a client's held version can only
	// ever match a base on the node that actually minted it; a node that
	// does not hold the advertised version serves a full response instead
	// of encoding against different bytes. Defaults: stride 1, offset 0 —
	// plain increments, the standalone behavior.
	VersionStride int
	// VersionOffset is this node's residue class; see VersionStride.
	VersionOffset int
}

func (c Config) withDefaults() Config {
	switch {
	case c.SampleProb < 0:
		c.SampleProb = 0
	case c.SampleProb == 0 || c.SampleProb > 1:
		c.SampleProb = 0.2
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = 8
	}
	if c.Eviction == 0 {
		c.Eviction = EvictWorst
	}
	if c.RandomEvictEvery <= 0 {
		c.RandomEvictEvery = 4
	}
	if c.VersionStride <= 0 {
		c.VersionStride = 1
	}
	c.VersionOffset = ((c.VersionOffset % c.VersionStride) + c.VersionStride) % c.VersionStride
	return c
}

// SameResidue reports whether versions a and b both belong to this
// config's residue class — i.e. were both minted by this node under the
// configured stride. Version-graph edges may only connect same-residue
// versions: after a failover a class can briefly hold foreign versions,
// and an edge across residues would compose deltas over bytes this node
// never minted.
func (c Config) SameResidue(a, b int) bool {
	stride := c.VersionStride
	if stride <= 0 {
		stride = 1
	}
	off := ((c.VersionOffset % stride) + stride) % stride
	return a%stride == off && b%stride == off
}

// Event reports what a call to Observe did.
type Event struct {
	Sampled     bool // the document was stored as a base-file candidate
	Evicted     bool // a stored document was evicted to make room
	GroupRebase bool // the base-file changed to a better stored candidate
	Initialized bool // this document became the very first base-file
}

// Strategy is the interface shared by the randomized selector and the
// baseline algorithms compared in Table III.
type Strategy interface {
	// Observe feeds the document served for a request into the strategy.
	Observe(doc []byte, now time.Time) Event
	// Base returns the current base-file and its version. The version
	// increments on every rebase; version 0 means no base yet.
	Base() ([]byte, int)
}

// sample is a stored document: a base-file candidate, a reference document
// (for EvictTwoSet the reference set; otherwise the candidates themselves),
// or both.
type sample struct {
	doc []byte
	tag string // opaque caller tag (e.g. the requesting user), for anonymization
	seq uint64 // identity within this selector; never reused
	// ix indexes doc for score, built once when the candidate is stored. It
	// is pooled again only by evictCandidate; other drops leave it to GC.
	ix *vdelta.EstimatorIndex
}

// admission is one sampled document on its way into the sample store.
type admission struct {
	doc []byte // the selector's own copy
	tag string
	now time.Time // the sampling request's clock, for the rebase-timeout
	gen uint64    // the set generation the document was sampled in
}

// lightDelta is the light Vdelta estimator every selector and baseline
// scores with; it is immutable apart from its scratch pool, so sharing it
// shares the pooled indexes across classes.
var lightDelta = vdelta.NewEstimator()

// Selector implements the randomized online algorithm of Section IV.
// It is safe for concurrent use.
//
// Two locks split the work. mu guards the state and is only ever held for
// bookkeeping — never across a delta estimate — so Base, BaseTag, Stats
// and an un-sampled Observe cost a few loads. admitMu serializes sample
// admissions: each one scores the new document against a snapshot of the
// stored sets with mu released (the 2K estimates), then commits the result
// under mu. The stored documents are immutable and the sets are edited in
// place only by a commit, so the snapshot is stable for the admission that
// took it; every other mutation replaces the sets wholesale and bumps gen,
// and a sample taken under an older generation — scored against sets that
// are gone, or still waiting its turn when they went — is discarded, so
// nothing sampled before a flush, prune or eviction outlives it.
type Selector struct {
	cfg Config
	est *vdelta.Estimator

	admitMu sync.Mutex // taken before mu; held across score + commit
	col     []int      // score's column scratch, guarded by admitMu
	scoring func()     // test hook: runs mid-score with mu released

	mu             sync.RWMutex
	rng            *rand.Rand
	base           []byte
	baseTag        string
	baseSeq        uint64 // seq of the candidate the base was installed from; 0 = none
	version        int
	lastRebase     time.Time
	hasRebased     bool
	evictions      int
	candidates     []sample
	refs           []sample // EvictTwoSet only
	dists          [][]int  // dists[i][j] = delta from candidates[i].doc to reference j
	best           int      // candidate minimizing the sum of deltas; -1 = none stored
	gen            uint64   // bumped whenever the sample sets are replaced wholesale
	nextSeq        uint64
	samplesSeen    int64
	samplesDropped int64
	observed       int64
	lastStored     int // footprint last reported via OnStoredBytes

	// Asynchronous admission slots: one admission running on its own
	// goroutine, at most one more waiting for it.
	running    bool
	hasWaiting bool
	waiting    admission
	pending    sync.WaitGroup // running admission goroutines
}

var _ Strategy = (*Selector)(nil)

// NewSelector returns a Selector with cfg applied over the defaults.
func NewSelector(cfg Config) *Selector {
	cfg = cfg.withDefaults()
	return &Selector{
		cfg:  cfg,
		est:  lightDelta,
		rng:  rand.New(rand.NewPCG(cfg.Seed, 0x9E3779B97F4A7C15)),
		best: -1,
	}
}

// utility returns the local utility of candidate i: the sum of deltas
// between it and every reference document (Section IV). Lower is better.
func (s *Selector) utility(i int) int {
	total := 0
	for _, d := range s.dists[i] {
		total += d
	}
	return total
}

// Observe implements Strategy.
func (s *Selector) Observe(doc []byte, now time.Time) Event {
	return s.ObserveTagged(doc, "", now)
}

// ObserveTagged is Observe with an opaque tag attached to the document
// (typically the requesting user). The tag of the document that becomes the
// base-file is available via BaseTag, which the anonymization process uses
// to exclude the base-file owner's own documents (footnote 5).
func (s *Selector) ObserveTagged(doc []byte, tag string, now time.Time) Event {
	var ev Event
	s.mu.Lock()
	s.observed++

	if s.base == nil {
		// The first response bootstraps the base-file so delta-encoding can
		// start immediately; the randomized algorithm improves on it later.
		// After a budget eviction dropped the base, re-warming lands here
		// too: the version counter keeps counting up from where it was, so
		// a re-warmed class never reuses a version number for new bytes.
		s.setBaseLocked(cloneBytes(doc), tag, 0)
		s.bumpVersionLocked()
		s.lastRebase = now
		ev.Initialized = true
	}

	ev.Sampled = s.cfg.SampleProb > 0 && s.rng.Float64() < s.cfg.SampleProb
	if ev.Sampled && s.running && s.hasWaiting {
		// One admission running, one waiting: shed the sample instead of
		// queueing an unbounded backlog of un-ledgered document copies.
		s.samplesDropped++
		ev.Sampled = false
	}
	var a admission
	if !ev.Sampled {
		s.maybeGroupRebase(now, &ev)
	} else {
		a = admission{doc: cloneBytes(doc), tag: tag, now: now, gen: s.gen}
		switch {
		case !s.cfg.AsyncSampling:
			// Admitted inline below, once mu is released.
		case !s.running:
			s.running = true
			s.pending.Add(1)
			go s.admitLoop(a)
		default:
			s.waiting, s.hasWaiting = a, true
		}
	}
	s.syncStoredLocked()
	s.mu.Unlock()

	if ev.Sampled && !s.cfg.AsyncSampling {
		s.admit(a, &ev)
	}
	return ev
}

// admitLoop is the asynchronous admission goroutine: it admits a, then
// whatever sample took the waiting slot meanwhile, and exits when the slot
// is empty.
func (s *Selector) admitLoop(a admission) {
	defer s.pending.Done()
	for {
		var ev Event
		s.admit(a, &ev)
		// The admission installed bytes after the sampling request's own
		// maintenance pass; run the follow-up with every lock released so
		// it can prune this selector. Done comes after, so Quiesce covers
		// the follow-up too.
		if s.cfg.AfterAsyncAdmit != nil {
			s.cfg.AfterAsyncAdmit()
		}
		s.mu.Lock()
		if !s.hasWaiting {
			s.running = false
			s.mu.Unlock()
			return
		}
		a, s.waiting, s.hasWaiting = s.waiting, admission{}, false
		s.mu.Unlock()
	}
}

// Quiesce blocks until all asynchronous sample admissions have completed.
// It is a no-op for synchronous selectors.
func (s *Selector) Quiesce() {
	s.pending.Wait()
}

// admit runs one admission: score outside mu, commit under it. Synchronous
// selectors call it inline, asynchronous ones from admitLoop.
func (s *Selector) admit(a admission, ev *Event) {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	row, ix := s.score(a)
	s.commit(a, row, ix, ev)
}

// score computes the 2K deltas between a's document and a snapshot of the
// stored sets, with mu released: s.col[i] is the delta from candidate i to
// the document (its new matrix column), row[j] the delta from the document
// to reference j, the last entry being the document as its own reference.
// ix is the document's index, which it keeps if it becomes a candidate.
// A sample from an older set generation is not scored. Callers hold admitMu.
func (s *Selector) score(a admission) (row []int, ix *vdelta.EstimatorIndex) {
	s.mu.RLock()
	cands, refs, stale := s.candidates, s.refs, s.gen != a.gen
	s.mu.RUnlock()
	if stale {
		return nil, nil
	}
	doc := a.doc
	twoSet := s.cfg.Eviction == EvictTwoSet
	if !twoSet {
		refs = cands
	}
	if s.scoring != nil {
		s.scoring()
	}

	s.col = s.col[:0]
	for i := range cands {
		s.col = append(s.col, s.est.EstimateIndexed(cands[i].ix, cands[i].doc, doc))
	}
	// doc is the base of every estimate in its row: index it once.
	row = make([]int, len(refs)+1, s.cfg.MaxSamples+1)
	ix = s.est.Index(doc)
	for j := range refs {
		row[j] = s.est.EstimateIndexed(ix, doc, refs[j].doc)
	}
	if twoSet {
		row[len(refs)] = s.est.EstimateIndexed(ix, doc, doc)
	}
	return row, ix
}

// commit stores a scored sample as a candidate (and, for the two-set
// variant, as a reference sample), evicts per policy when full, and lets a
// better candidate take over. A sample whose set generation has passed —
// the sets were flushed while it waited or was being scored — is
// discarded. Callers hold admitMu.
func (s *Selector) commit(a admission, row []int, ix *vdelta.EstimatorIndex, ev *Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.syncStoredLocked()
	if a.gen != s.gen {
		s.samplesDropped++
		ev.Sampled = false
		return
	}
	s.samplesSeen++
	s.nextSeq++
	smp := sample{doc: a.doc, tag: a.tag, seq: s.nextSeq, ix: ix}
	for i := range s.candidates {
		s.dists[i] = append(s.dists[i], s.col[i])
	}
	s.candidates = append(s.candidates, smp)
	s.dists = append(s.dists, row)

	K := s.cfg.MaxSamples
	if s.cfg.Eviction == EvictTwoSet {
		s.refs = append(s.refs, smp)
		if len(s.refs) > K {
			// Evict a random reference sample.
			j := s.rng.IntN(len(s.refs))
			s.refs = append(s.refs[:j], s.refs[j+1:]...)
			for i := range s.dists {
				s.dists[i] = append(s.dists[i][:j], s.dists[i][j+1:]...)
			}
		}
		if len(s.candidates) > K {
			s.evictCandidate(s.worstCandidate())
			ev.Evicted = true
		}
	} else if len(s.candidates) > K {
		s.evictions++
		victim := s.worstCandidate()
		if s.cfg.Eviction == EvictPeriodicRandom && s.evictions%s.cfg.RandomEvictEvery == 0 {
			victim = s.randomNonBaseCandidate()
		}
		s.evictCandidate(victim)
		ev.Evicted = true
	}
	s.best = s.bestCandidate()
	s.maybeGroupRebase(a.now, ev)
}

// worstCandidate returns the index of the stored candidate with the maximum
// sum of deltas.
func (s *Selector) worstCandidate() int {
	worst, worstU := 0, -1
	for i := range s.candidates {
		if u := s.utility(i); u > worstU {
			worst, worstU = i, u
		}
	}
	return worst
}

// randomNonBaseCandidate picks a random candidate that is not the current
// base-file (footnote 3). Falls back to the worst candidate when every
// stored document equals the base.
func (s *Selector) randomNonBaseCandidate() int {
	eligible := 0
	for i := range s.candidates {
		if !bytes.Equal(s.candidates[i].doc, s.base) {
			eligible++
		}
	}
	if eligible == 0 {
		return s.worstCandidate()
	}
	pick := s.rng.IntN(eligible)
	for i := range s.candidates {
		if bytes.Equal(s.candidates[i].doc, s.base) {
			continue
		}
		if pick == 0 {
			return i
		}
		pick--
	}
	panic("basefile: eligible candidate count changed under the lock")
}

// evictCandidate drops candidate i. Callers hold admitMu, as every score
// does, so no snapshot is still reading its index: the pool takes it back.
func (s *Selector) evictCandidate(i int) {
	s.est.Release(s.candidates[i].ix)
	s.candidates = append(s.candidates[:i], s.candidates[i+1:]...)
	s.dists = append(s.dists[:i], s.dists[i+1:]...)
	if s.cfg.Eviction != EvictTwoSet {
		// The candidate was also a reference: drop its column.
		for r := range s.dists {
			s.dists[r] = append(s.dists[r][:i], s.dists[r][i+1:]...)
		}
	}
}

// bestCandidate returns the index of the candidate minimizing the sum of
// deltas, or -1 if none are stored. The result is cached in s.best by every
// path that changes the matrix, so un-sampled requests never recompute it.
func (s *Selector) bestCandidate() int {
	best, bestU := -1, 0
	for i := range s.candidates {
		if u := s.utility(i); best == -1 || u < bestU {
			best, bestU = i, u
		}
	}
	return best
}

// maybeGroupRebase installs the best stored candidate as the base-file when
// it differs from the current base and the rebase-timeout has expired. It
// runs on every Observe, so the common outcomes cost no byte comparison:
// the base is recognised as the best candidate by sample identity, and a
// different sample holding the very same bytes is compared once and then
// remembered as that identity.
func (s *Selector) maybeGroupRebase(now time.Time, ev *Event) {
	if s.best < 0 {
		return
	}
	c := &s.candidates[s.best]
	if c.seq == s.baseSeq {
		return
	}
	if s.hasRebased && now.Sub(s.lastRebase) < s.cfg.RebaseTimeout {
		return
	}
	if bytes.Equal(c.doc, s.base) {
		s.baseSeq = c.seq
		return
	}
	s.setBaseLocked(cloneBytes(c.doc), c.tag, c.seq)
	s.bumpVersionLocked()
	s.lastRebase = now
	s.hasRebased = true
	ev.GroupRebase = true
}

// setBaseLocked replaces the working base. seq names the stored candidate
// the bytes were taken from, 0 when they came from anywhere else.
func (s *Selector) setBaseLocked(base []byte, tag string, seq uint64) {
	s.base, s.baseTag, s.baseSeq = base, tag, seq
}

// clearSamplesLocked flushes the stored sets and the distance matrix, and
// moves to a new set generation so that an admission scored against the
// old sets is discarded at commit.
func (s *Selector) clearSamplesLocked() {
	s.candidates, s.refs, s.dists = nil, nil, nil
	s.best = -1
	s.gen++
}

// Base implements Strategy. The returned bytes are replaced, never
// mutated, on rebase; callers must not modify them.
func (s *Selector) Base() ([]byte, int) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.base, s.version
}

// BaseTag returns the tag that was attached (via ObserveTagged or
// BasicRebase) to the document currently serving as the base-file.
func (s *Selector) BaseTag() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.baseTag
}

// BasicRebase installs doc as the new base-file and flushes all stored
// samples. The engine calls this when generated deltas become relatively
// large (the paper's basic-rebase, orthogonal to group-rebases). tag is
// attached to the new base as in ObserveTagged.
func (s *Selector) BasicRebase(doc []byte, tag string, now time.Time) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.syncStoredLocked()
	s.setBaseLocked(cloneBytes(doc), tag, 0)
	s.bumpVersionLocked()
	s.lastRebase = now
	s.hasRebased = true
	s.clearSamplesLocked()
	return s.version
}

// Stats reports internal counters for experiments and debugging.
type Stats struct {
	Observed       int64 // documents fed to Observe
	Sampled        int64 // documents stored as candidates
	SamplesDropped int64 // sampled but not stored: admission slots full, or sets flushed first
	Stored         int   // candidates currently stored
	StoredBytes    int   // total bytes of stored candidate documents
	Version        int   // current base-file version
}

// Stats returns a snapshot of the selector's counters.
func (s *Selector) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	bytes := 0
	for i := range s.candidates {
		bytes += len(s.candidates[i].doc)
	}
	if s.cfg.Eviction == EvictTwoSet {
		for i := range s.refs {
			bytes += len(s.refs[i].doc)
		}
	}
	return Stats{
		Observed:       s.observed,
		Sampled:        s.samplesSeen,
		SamplesDropped: s.samplesDropped,
		Stored:         len(s.candidates),
		StoredBytes:    bytes,
		Version:        s.version,
	}
}

func cloneBytes(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// footprintLocked returns the selector's resident document bytes: the
// working base plus all stored candidate and reference samples. The two-set
// variant shares each sample's backing slice between both sets; the shared
// bytes are deliberately counted per set — consistently, so the deltas
// reported via OnStoredBytes net to zero over a sample's lifetime.
func (s *Selector) footprintLocked() int {
	n := len(s.base)
	for i := range s.candidates {
		n += len(s.candidates[i].doc)
	}
	if s.cfg.Eviction == EvictTwoSet {
		for i := range s.refs {
			n += len(s.refs[i].doc)
		}
	}
	return n
}

// syncStoredLocked reports the footprint change since the last report to
// the OnStoredBytes callback. Every mutation path defers it before
// releasing the lock, so the accounting never drifts from the store.
func (s *Selector) syncStoredLocked() {
	if s.cfg.OnStoredBytes == nil {
		return
	}
	cur := s.footprintLocked()
	if d := cur - s.lastStored; d != 0 {
		s.lastStored = cur
		s.cfg.OnStoredBytes(d)
	}
}

// DropSamples releases the selector's sampled documents — candidates,
// reference samples, and the distance matrix — while keeping the working
// base, so the class keeps serving deltas against its current base-file.
// The store's budget maintenance calls this to prune a class.
func (s *Selector) DropSamples() {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.syncStoredLocked()
	s.clearSamplesLocked()
}

// DropStored additionally releases the working base, fully de-warming the
// selector. The version counter is preserved: when traffic re-initializes
// the base, the version increments past every number this class ever
// announced, so a client can never be served a delta computed against
// bytes that differ from the base version it holds. The store's budget
// maintenance calls this to evict a class.
func (s *Selector) DropStored() {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.syncStoredLocked()
	s.clearSamplesLocked()
	s.setBaseLocked(nil, "", 0)
}

// SpillDoc is one stored sample in a selector spill snapshot.
type SpillDoc struct {
	Bytes []byte
	Tag   string
}

// SpillState is the selector state worth demoting to the disk tier: the
// working base, the version counter, and the sampled documents. The
// distance matrix is deliberately excluded — it is derived data, cheaply
// recomputed on fault-in.
type SpillState struct {
	Base       []byte
	BaseTag    string
	Version    int
	Candidates []SpillDoc
	Refs       []SpillDoc
}

// SpillState snapshots the selector for the disk tier. The returned byte
// slices alias the selector's internal buffers, which are replaced (never
// mutated in place) by every mutation path, so the snapshot stays stable
// even if the selector is dropped or re-warmed afterwards.
func (s *Selector) SpillState() SpillState {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := SpillState{Base: s.base, BaseTag: s.baseTag, Version: s.version}
	for i := range s.candidates {
		st.Candidates = append(st.Candidates, SpillDoc{Bytes: s.candidates[i].doc, Tag: s.candidates[i].tag})
	}
	if s.cfg.Eviction == EvictTwoSet {
		for i := range s.refs {
			st.Refs = append(st.Refs, SpillDoc{Bytes: s.refs[i].doc, Tag: s.refs[i].tag})
		}
	}
	return st
}

// RestoreSpill faults a spill snapshot back into the selector: base, tag,
// version high-water mark, and stored samples, with the distance matrix
// recomputed under the current eviction policy. Samples beyond MaxSamples
// (e.g. the config shrank across a restart) are dropped newest-last. The
// selector takes ownership of the snapshot's byte slices — fault-in
// decoding always produces fresh buffers.
//
// A snapshot taken at a version below the selector's current counter is
// ignored: the counter moved on after it was taken, so clients may hold
// other bytes under the current number, and installing the snapshot's base
// would serve them deltas against a base they never had.
func (s *Selector) RestoreSpill(st SpillState, now time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	defer s.syncStoredLocked()
	if st.Version < s.version {
		return
	}
	if len(st.Base) > 0 {
		s.setBaseLocked(st.Base, st.BaseTag, 0)
	}
	s.version = st.Version
	s.lastRebase = now
	s.hasRebased = s.version > s.nextVersionLocked(0)

	K := s.cfg.MaxSamples
	s.clearSamplesLocked()
	for _, d := range st.Candidates[:min(len(st.Candidates), K)] {
		s.nextSeq++
		s.candidates = append(s.candidates, sample{doc: d.Bytes, tag: d.Tag, seq: s.nextSeq})
	}
	// Single-set variants: references are the candidates themselves, and a
	// candidate's delta to itself is zero.
	refs := s.candidates
	twoSet := s.cfg.Eviction == EvictTwoSet
	if twoSet {
		for _, d := range st.Refs[:min(len(st.Refs), K)] {
			s.refs = append(s.refs, sample{doc: d.Bytes, tag: d.Tag})
		}
		refs = s.refs
	}
	for i := range s.candidates {
		doc := s.candidates[i].doc
		row := make([]int, len(refs), K+1)
		ix := s.est.Index(doc)
		for j := range refs {
			if twoSet || i != j {
				row[j] = s.est.EstimateIndexed(ix, doc, refs[j].doc)
			}
		}
		s.candidates[i].ix = ix
		s.dists = append(s.dists, row)
	}
	s.best = s.bestCandidate()
}

// RaiseVersion lifts the version counter to at least v without touching
// any other state. The fault-in path uses it when a spill record turns
// out to be stale (the class re-warmed from traffic first): the record's
// bytes are discarded but its version high-water mark must survive, so no
// number is ever reused for different bytes.
func (s *Selector) RaiseVersion(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v > s.version {
		s.version = v
		s.hasRebased = v > s.nextVersionLocked(0)
	}
}

// bumpVersionLocked advances the version counter to the next number in this
// node's stride class. With the default stride of 1 this is a plain
// increment. Callers hold s.mu.
func (s *Selector) bumpVersionLocked() {
	s.version = s.nextVersionLocked(s.version)
}

// nextVersionLocked returns the smallest v > after with
// v ≡ VersionOffset (mod VersionStride).
func (s *Selector) nextVersionLocked(after int) int {
	v := after + 1
	stride, off := s.cfg.VersionStride, s.cfg.VersionOffset
	if rem := ((v-off)%stride + stride) % stride; rem != 0 {
		v += stride - rem
	}
	return v
}
