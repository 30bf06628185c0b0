package store

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeEntry is a store Entry with a controllable footprint: prunable bytes
// release on Prune, the rest only on Evict.
type fakeEntry struct {
	acct *Accountant

	mu       sync.Mutex
	base     int64 // releases only on Evict
	prunable int64 // releases on Prune (counted as cand bytes)
	prunes   int
	evicts   int
}

func newFakeEntry(acct *Accountant, base, prunable int64) *fakeEntry {
	acct.AddBase(base)
	acct.AddCand(prunable)
	return &fakeEntry{acct: acct, base: base, prunable: prunable}
}

// grow adds bytes after creation, the way a real classState does (entries
// join the eviction ring empty and accumulate bytes from traffic).
func (e *fakeEntry) grow(base, prunable int64) {
	e.mu.Lock()
	e.base += base
	e.prunable += prunable
	e.mu.Unlock()
	e.acct.AddBase(base)
	e.acct.AddCand(prunable)
}

func (e *fakeEntry) ResidentBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.base + e.prunable
}

func (e *fakeEntry) Prune() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.prunes++
	f := e.prunable
	e.prunable = 0
	e.acct.AddCand(-f)
	return f
}

func (e *fakeEntry) Evict() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.evicts++
	f := e.base + e.prunable
	e.acct.AddBase(-e.base)
	e.acct.AddCand(-e.prunable)
	e.base, e.prunable = 0, 0
	return f
}

func TestAccountant(t *testing.T) {
	var a Accountant
	a.AddBase(100)
	a.AddCand(40)
	a.AddIndex(25)
	a.AddBase(-30)
	u := a.Usage()
	if u.BaseBytes != 70 || u.CandBytes != 40 || u.IndexBytes != 25 {
		t.Fatalf("usage = %+v", u)
	}
	if u.Total != 135 || a.Total() != 135 {
		t.Fatalf("total = %d / %d, want 135", u.Total, a.Total())
	}
}

func TestMapGetOrCreateOnce(t *testing.T) {
	m := NewTable(0, nil)
	var created int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, madeIt := m.GetOrCreate("k", func() Entry {
				mu.Lock()
				created++
				mu.Unlock()
				return newFakeEntry(m.Accountant(), 10, 0)
			})
			if e == nil {
				t.Error("nil entry")
			}
			_ = madeIt
		}()
	}
	wg.Wait()
	if created != 1 {
		t.Fatalf("create ran %d times, want 1", created)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
	if got := m.Accountant().Total(); got != 10 {
		t.Fatalf("accounted %d bytes, want 10", got)
	}
	if st := m.Stats(); st.Classes != 1 || st.ResidentClasses != 1 || st.Budget != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if m.Maintain() != 0 {
		t.Fatal("unbudgeted Maintain freed bytes")
	}
	if len(m.ring) != 0 {
		t.Fatal("unbudgeted table keeps an eviction ring")
	}
	// Unbudgeted, nothing is ever evicted: an entry holding no bytes yet
	// still counts as resident.
	m.GetOrCreate("empty", func() Entry { return newFakeEntry(m.Accountant(), 0, 0) })
	if st := m.Stats(); st.Classes != 2 || st.ResidentClasses != 2 {
		t.Fatalf("stats = %+v, want both entries resident", st)
	}
}

func TestBudgetedPrunesBeforeEvicting(t *testing.T) {
	b := NewTable(200, func() time.Time { return time.Unix(0, 0) })
	var entries []*fakeEntry
	for i := 0; i < 4; i++ {
		e, _ := b.GetOrCreate(fmt.Sprintf("c%d", i), func() Entry {
			fe := newFakeEntry(b.Accountant(), 50, 50)
			entries = append(entries, fe)
			return fe
		})
		_ = e
	}
	// 400 resident > 200 budget; pruning alone (frees 200) suffices.
	freed := b.Maintain()
	if freed != 200 {
		t.Fatalf("freed %d, want 200", freed)
	}
	for i, e := range entries {
		if e.evicts != 0 {
			t.Fatalf("entry %d evicted though pruning sufficed", i)
		}
		if e.prunes == 0 {
			t.Fatalf("entry %d never pruned", i)
		}
	}
	if got := b.Accountant().Total(); got != 200 {
		t.Fatalf("resident = %d, want 200", got)
	}
	st := b.Stats()
	if st.Prunes != 4 || st.Evictions != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.Log) != 4 {
		t.Fatalf("log has %d records, want 4", len(st.Log))
	}
	for _, r := range st.Log {
		if r.Kind != "prune" || r.FreedBytes != 50 {
			t.Fatalf("log record = %+v", r)
		}
	}
}

func TestBudgetedEvictsUntilUnderBudget(t *testing.T) {
	b := NewTable(100, nil)
	var entries []*fakeEntry
	for i := 0; i < 4; i++ {
		b.GetOrCreate(fmt.Sprintf("c%d", i), func() Entry {
			fe := newFakeEntry(b.Accountant(), 50, 0)
			entries = append(entries, fe)
			return fe
		})
	}
	freed := b.Maintain()
	if got := b.Accountant().Total(); got > 100 {
		t.Fatalf("resident %d exceeds budget 100", got)
	}
	if freed < 100 {
		t.Fatalf("freed %d, want >= 100", freed)
	}
	st := b.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions recorded")
	}
	if st.Classes != 4 {
		t.Fatalf("entries removed from map: Classes = %d", st.Classes)
	}
	if st.ResidentClasses != 4-int(st.Evictions) {
		t.Fatalf("ResidentClasses = %d with %d evictions", st.ResidentClasses, st.Evictions)
	}
	// Under budget now: another sweep is a no-op.
	if b.Maintain() != 0 {
		t.Fatal("Maintain freed bytes while under budget")
	}
}

func TestBudgetedSecondChanceSparesTouched(t *testing.T) {
	b := NewTable(50, nil)
	var hot *fakeEntry
	b.GetOrCreate("hot", func() Entry {
		hot = newFakeEntry(b.Accountant(), 50, 0)
		return hot
	})
	var cold []*fakeEntry
	for i := 0; i < 3; i++ {
		b.GetOrCreate(fmt.Sprintf("cold%d", i), func() Entry {
			fe := newFakeEntry(b.Accountant(), 50, 0)
			cold = append(cold, fe)
			return fe
		})
	}
	// Creation sets every ref bit, which would give every entry a second
	// chance on the first sweep and reduce victim choice to ring order.
	// Clear the bits (white-box), then touch only "hot" so the policy has
	// a real recency signal to act on.
	b.mu.Lock()
	for _, s := range b.ring {
		s.ref.Store(false)
	}
	b.mu.Unlock()
	b.Get("hot")
	b.Maintain()
	if got := b.Accountant().Total(); got > 50 {
		t.Fatalf("resident %d exceeds budget 50", got)
	}
	// The hot entry had its ref bit set, so at least one cold entry must
	// have been evicted before hot was considered a victim. With budget 50
	// and 200 resident, evicting the three colds suffices, and the hot
	// entry survives the sweep.
	if hot.evicts != 0 {
		t.Fatal("recently-touched entry evicted while cold entries sufficed")
	}
	for i, e := range cold {
		if e.evicts != 1 {
			t.Fatalf("cold entry %d evicted %d times, want 1", i, e.evicts)
		}
	}
}

func TestBudgetedLogRing(t *testing.T) {
	b := NewTable(0, func() time.Time { return time.Unix(42, 0) })
	for i := 0; i < evictionLogSize+10; i++ {
		b.record("evict", fmt.Sprintf("c%d", i), 1)
	}
	st := b.Stats()
	if len(st.Log) != evictionLogSize {
		t.Fatalf("log has %d records, want %d", len(st.Log), evictionLogSize)
	}
	if st.Log[0].Key != "c10" {
		t.Fatalf("oldest kept record = %q, want c10", st.Log[0].Key)
	}
	if last := st.Log[len(st.Log)-1]; last.Key != fmt.Sprintf("c%d", evictionLogSize+9) {
		t.Fatalf("newest record = %q", last.Key)
	}
	if !st.Log[0].At.Equal(time.Unix(42, 0)) {
		t.Fatalf("record timestamp = %v", st.Log[0].At)
	}
}

func TestBudgetedConcurrentMaintain(t *testing.T) {
	b := NewTable(64, nil)
	for i := 0; i < 32; i++ {
		i := i
		b.GetOrCreate(fmt.Sprintf("c%d", i), func() Entry {
			return newFakeEntry(b.Accountant(), 64, 64)
		})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Get(fmt.Sprintf("c%d", i%32))
				b.Maintain()
			}
		}()
	}
	wg.Wait()
	// Quiesced: one final full sweep must land at or under budget.
	b.Maintain()
	if got := b.Accountant().Total(); got > 64 {
		t.Fatalf("resident %d exceeds budget 64 after quiesced sweep", got)
	}
}

// TestBudgetedMaintainConvergesUnderConcurrentInstalls pins the enforcement
// bound down to the last request: bytes installed while another goroutine
// holds the maintenance lock lose the TryLock, and must be collected by
// that holder's post-release re-check — not linger over budget until the
// next request happens to sweep.
func TestBudgetedMaintainConvergesUnderConcurrentInstalls(t *testing.T) {
	b := NewTable(256, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e, _ := b.GetOrCreate(fmt.Sprintf("g%d-c%d", g, i), func() Entry {
					return newFakeEntry(b.Accountant(), 0, 0)
				})
				e.(*fakeEntry).grow(64, 64)
				b.Maintain()
			}
		}()
	}
	wg.Wait()
	// No quiesced sweep here: every Maintain has returned, so resident
	// bytes must already be at or under budget.
	if got := b.Accountant().Total(); got > 256 {
		t.Fatalf("resident %d exceeds budget 256 after all Maintains returned", got)
	}
}
