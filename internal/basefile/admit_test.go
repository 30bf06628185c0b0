package basefile

// Tests for the admission path: score outside the selector lock, commit
// under it, a generation counter against flushes, bounded asynchronous
// backlog. refSelector below is the selector as it was before that split —
// one lock-free pass per sample, every delta estimated on the spot, the
// base recognised by comparing bytes — kept as the determinism reference.

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cbde/internal/testutil"
)

var allPolicies = []EvictionPolicy{EvictWorst, EvictPeriodicRandom, EvictTwoSet}

type refSelector struct {
	cfg        Config
	rng        *rand.Rand
	base       []byte
	version    int
	lastRebase time.Time
	hasRebased bool
	evictions  int
	candidates [][]byte
	refs       [][]byte // EvictTwoSet only
	dists      [][]int
}

func newRefSelector(cfg Config) *refSelector {
	cfg = cfg.withDefaults()
	return &refSelector{cfg: cfg, rng: rand.New(rand.NewPCG(cfg.Seed, 0x9E3779B97F4A7C15))}
}

func (r *refSelector) utility(i int) int {
	total := 0
	for _, d := range r.dists[i] {
		total += d
	}
	return total
}

func (r *refSelector) worst() int {
	worst, worstU := 0, -1
	for i := range r.candidates {
		if u := r.utility(i); u > worstU {
			worst, worstU = i, u
		}
	}
	return worst
}

func (r *refSelector) evict(i int) {
	r.candidates = append(r.candidates[:i], r.candidates[i+1:]...)
	r.dists = append(r.dists[:i], r.dists[i+1:]...)
	if r.cfg.Eviction != EvictTwoSet {
		for row := range r.dists {
			r.dists[row] = append(r.dists[row][:i], r.dists[row][i+1:]...)
		}
	}
}

func (r *refSelector) observe(doc []byte, now time.Time) {
	if r.base == nil {
		r.base = doc
		r.version++
		r.lastRebase = now
	}
	if r.cfg.SampleProb > 0 && r.rng.Float64() < r.cfg.SampleProb {
		r.admit(doc)
	}
	best, bestU := -1, 0
	for i := range r.candidates {
		if u := r.utility(i); best == -1 || u < bestU {
			best, bestU = i, u
		}
	}
	if best < 0 || bytes.Equal(r.candidates[best], r.base) {
		return
	}
	if r.hasRebased && now.Sub(r.lastRebase) < r.cfg.RebaseTimeout {
		return
	}
	r.base = r.candidates[best]
	r.version++
	r.lastRebase = now
	r.hasRebased = true
}

func (r *refSelector) admit(doc []byte) {
	K := r.cfg.MaxSamples
	size := lightDelta.Estimate
	if r.cfg.Eviction == EvictTwoSet {
		r.refs = append(r.refs, doc)
		for i := range r.candidates {
			r.dists[i] = append(r.dists[i], size(r.candidates[i], doc))
		}
		r.candidates = append(r.candidates, doc)
		row := make([]int, len(r.refs))
		for j := range r.refs {
			row[j] = size(doc, r.refs[j])
		}
		r.dists = append(r.dists, row)
		if len(r.refs) > K {
			j := r.rng.IntN(len(r.refs))
			r.refs = append(r.refs[:j], r.refs[j+1:]...)
			for i := range r.dists {
				r.dists[i] = append(r.dists[i][:j], r.dists[i][j+1:]...)
			}
		}
		if len(r.candidates) > K {
			r.evict(r.worst())
		}
		return
	}
	for i := range r.candidates {
		r.dists[i] = append(r.dists[i], size(r.candidates[i], doc))
	}
	r.candidates = append(r.candidates, doc)
	row := make([]int, len(r.candidates))
	for j := range r.candidates[:len(r.candidates)-1] {
		row[j] = size(doc, r.candidates[j])
	}
	r.dists = append(r.dists, row)
	if len(r.candidates) <= K {
		return
	}
	r.evictions++
	victim := r.worst()
	if r.cfg.Eviction == EvictPeriodicRandom && r.evictions%r.cfg.RandomEvictEvery == 0 {
		var eligible []int
		for i := range r.candidates {
			if !bytes.Equal(r.candidates[i], r.base) {
				eligible = append(eligible, i)
			}
		}
		if len(eligible) > 0 {
			victim = eligible[r.rng.IntN(len(eligible))]
		}
	}
	r.evict(victim)
}

// TestSyncInstallsMatchReference: in synchronous mode a seeded document
// stream installs the same (version, base bytes) sequence as the reference,
// for every eviction policy, with and without a rebase-timeout. The stream
// repeats documents, so the same bytes arrive under several sample
// identities, including the bytes of the bootstrap base.
func TestSyncInstallsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 4))
	family := classDocs(rng, 40, 3000)
	stream := [][]byte{outlierDoc(rng, 3000)}
	for i := 0; i < 160; i++ {
		stream = append(stream, family[rng.IntN(len(family))])
	}
	stream = append(stream, stream[0], stream[0], stream[1])

	for _, policy := range allPolicies {
		for _, p := range []float64{1, 0.3} {
			for _, timeout := range []time.Duration{0, 7 * time.Second} {
				name := fmt.Sprintf("%v/p=%v/timeout=%v", policy, p, timeout)
				cfg := Config{
					SampleProb: p, MaxSamples: 4, Eviction: policy,
					RandomEvictEvery: 2, RebaseTimeout: timeout, Seed: 11,
				}
				s, ref := NewSelector(cfg), newRefSelector(cfg)
				now := time.Unix(0, 0)
				installs := 0
				for i, doc := range stream {
					s.Observe(doc, now)
					ref.observe(doc, now)
					base, v := s.Base()
					if v != ref.version || !bytes.Equal(base, ref.base) {
						t.Fatalf("%s: after doc %d: version %d (%d-byte base), reference version %d (%d bytes)",
							name, i, v, len(base), ref.version, len(ref.base))
					}
					installs = v
					now = now.Add(time.Second)
				}
				if installs < 2 {
					t.Errorf("%s: the stream never rebased; the comparison is vacuous", name)
				}
			}
		}
	}
}

// TestSteadyStateAdmissionAllocs: with the store full, admitting a sample
// allocates its document copy and its matrix row, nothing else.
func TestSteadyStateAdmissionAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	rng := rand.New(rand.NewPCG(22, 5))
	docs := classDocs(rng, 48, 4000)
	for _, policy := range allPolicies {
		t.Run(policy.String(), func(t *testing.T) {
			s := NewSelector(Config{
				SampleProb: 1, MaxSamples: 6, Eviction: policy,
				RandomEvictEvery: 2, RebaseTimeout: time.Hour,
			})
			now := time.Unix(0, 0)
			for _, d := range docs[:24] {
				s.Observe(d, now)
			}
			i := 0
			allocs := testing.AllocsPerRun(200, func() {
				s.Observe(docs[i%len(docs)], now)
				i++
			})
			// 2 per admission; the slack covers an estimator pool refill
			// after a GC cycle.
			if allocs > 2.2 {
				t.Errorf("steady-state admission allocates %.2f objects, want 2 (document copy + matrix row)", allocs)
			}
		})
	}
}

// returnsPromptly fails the test if fn does not return while an admission
// is parked mid-score.
func returnsPromptly(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s waited for an admission that is still scoring", what)
	}
}

// TestAccessorsDoNotWaitForScoring parks an admission in the middle of its
// estimates and requires the request-path calls to return meanwhile, in
// both modes: Base, BaseTag, Stats and an un-sampled ObserveTagged, plus —
// asynchronously — the sampled ObserveTagged calls that take the waiting
// slot and then overflow it.
func TestAccessorsDoNotWaitForScoring(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 6))
	docs := classDocs(rng, 8, 1500)
	now := time.Unix(0, 0)
	for _, async := range []bool{false, true} {
		t.Run(fmt.Sprintf("async=%v", async), func(t *testing.T) {
			s := NewSelector(Config{SampleProb: 1, MaxSamples: 4, AsyncSampling: async})
			s.Observe(docs[0], now)
			s.Quiesce()

			entered, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			s.scoring = func() {
				once.Do(func() {
					close(entered)
					<-release
				})
			}
			var blocked sync.WaitGroup
			blocked.Add(1)
			go func() {
				defer blocked.Done()
				s.Observe(docs[1], now) // sync: parks here; async: hands off
			}()
			<-entered

			if async {
				returnsPromptly(t, "a sampled Observe (waiting slot)", func() {
					if ev := s.Observe(docs[2], now); !ev.Sampled {
						t.Error("the waiting slot was free but the sample was shed")
					}
				})
				returnsPromptly(t, "a sampled Observe (slots full)", func() {
					if ev := s.Observe(docs[3], now); ev.Sampled {
						t.Error("a third sample was queued behind a running and a waiting one")
					}
				})
			}
			s.mu.Lock()
			s.cfg.SampleProb = 0 // from here on every Observe is un-sampled
			s.mu.Unlock()
			returnsPromptly(t, "Base", func() { s.Base() })
			returnsPromptly(t, "BaseTag", func() { s.BaseTag() })
			returnsPromptly(t, "Stats", func() { s.Stats() })
			returnsPromptly(t, "an un-sampled ObserveTagged", func() { s.ObserveTagged(docs[4], "u", now) })

			close(release)
			blocked.Wait()
			s.Quiesce()
			st := s.Stats()
			wantSampled, wantDropped := int64(2), int64(0)
			if async {
				wantSampled, wantDropped = 3, 1
			}
			if st.Sampled != wantSampled || st.SamplesDropped != wantDropped {
				t.Errorf("sampled %d dropped %d, want %d and %d", st.Sampled, st.SamplesDropped, wantSampled, wantDropped)
			}
		})
	}
}

// checkInvariants asserts what must hold of a quiesced selector: a matrix
// with one row per candidate and one column per reference, and a footprint
// equal to the net of every OnStoredBytes delta.
func checkInvariants(t *testing.T, s *Selector, ledger int64) {
	t.Helper()
	s.mu.RLock()
	defer s.mu.RUnlock()
	cols := len(s.candidates)
	if s.cfg.Eviction == EvictTwoSet {
		cols = len(s.refs)
	}
	if len(s.dists) != len(s.candidates) {
		t.Fatalf("%d matrix rows for %d candidates", len(s.dists), len(s.candidates))
	}
	for i, row := range s.dists {
		if len(row) != cols {
			t.Fatalf("row %d has %d columns, want %d", i, len(row), cols)
		}
	}
	if len(s.candidates) > s.cfg.MaxSamples || len(s.refs) > s.cfg.MaxSamples {
		t.Fatalf("%d candidates and %d references stored, K = %d", len(s.candidates), len(s.refs), s.cfg.MaxSamples)
	}
	if want := s.bestCandidate(); s.best != want {
		t.Fatalf("cached best candidate %d, matrix says %d", s.best, want)
	}
	if got := int64(s.footprintLocked()); got != ledger {
		t.Fatalf("OnStoredBytes deltas net to %d, footprint is %d", ledger, got)
	}
}

// TestAdmissionsRaceFlushes runs asynchronous admissions against every path
// that replaces the sample sets. Documents carry the flush epoch they were
// observed in; once quiesced, nothing observed before the last flush may
// still be stored, whichever side of that flush its admission committed on.
func TestAdmissionsRaceFlushes(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 7))
	docs := classDocs(rng, 32, 2500)
	for _, policy := range allPolicies {
		t.Run(policy.String(), func(t *testing.T) {
			var ledger atomic.Int64
			s := NewSelector(Config{
				SampleProb: 1, MaxSamples: 4, Eviction: policy, RandomEvictEvery: 2,
				AsyncSampling: true,
				OnStoredBytes: func(d int) { ledger.Add(int64(d)) },
			})
			now := time.Unix(0, 0)
			var (
				epochMu sync.RWMutex // observers read-hold it across Observe
				epoch   int
				wg      sync.WaitGroup
				stop    = make(chan struct{})
			)
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; ; i += 4 {
						select {
						case <-stop:
							return
						default:
						}
						epochMu.RLock()
						s.ObserveTagged(docs[i%len(docs)], fmt.Sprint(epoch), now)
						epochMu.RUnlock()
					}
				}(w)
			}
			flushes := []func(tag string){
				func(tag string) { s.BasicRebase(docs[0], tag, now) },
				func(string) { s.DropSamples() },
				func(string) { s.DropStored() },
				func(tag string) {
					st := s.SpillState()
					st.Candidates = []SpillDoc{{Bytes: docs[1], Tag: tag}, {Bytes: docs[2], Tag: tag}}
					st.Refs = []SpillDoc{{Bytes: docs[3], Tag: tag}}
					s.RestoreSpill(st, now)
				},
			}
			for round := 0; round < 40; round++ {
				epochMu.Lock()
				epoch++
				flushes[round%len(flushes)](fmt.Sprint(epoch))
				epochMu.Unlock()
				s.Stats()
				s.Base()
			}
			close(stop)
			wg.Wait()
			s.Quiesce()

			checkInvariants(t, s, ledger.Load())
			last := fmt.Sprint(epoch)
			s.mu.RLock()
			for _, set := range [][]sample{s.candidates, s.refs} {
				for _, c := range set {
					if c.tag != last {
						t.Errorf("a sample observed in epoch %s survived the flush that began epoch %s", c.tag, last)
					}
				}
			}
			s.mu.RUnlock()
		})
	}
}

// TestRestoreSpillIgnoresStaleSnapshot: a snapshot taken before the version
// counter moved on must not put its base under the newer number.
func TestRestoreSpillIgnoresStaleSnapshot(t *testing.T) {
	now := time.Unix(0, 0)
	s := NewSelector(Config{SampleProb: -1})
	s.Observe([]byte("version one bytes"), now)
	stale := s.SpillState()
	s.DropStored()
	s.Observe([]byte("version two bytes, handed to a client"), now)
	s.DropStored()

	s.RestoreSpill(stale, now)
	if base, v := s.Base(); base != nil || v != 2 {
		t.Fatalf("after a stale restore: %d-byte base at version %d, want no base at version 2", len(base), v)
	}
	s.Observe([]byte("version three"), now)
	if _, v := s.Base(); v != 3 {
		t.Fatalf("re-warm after a stale restore minted version %d, want 3", v)
	}
}
