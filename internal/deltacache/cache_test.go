package deltacache

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestLeadCommitThenHit(t *testing.T) {
	var ledger int64
	c := New(8, func(d int64) { ledger += d })
	key := Key{From: 1, DocHash: 42, DocLen: 100}

	res, fl, st := c.Acquire(key)
	if st != StatusLead {
		t.Fatalf("first acquire = %v, want StatusLead", st)
	}
	if res.Payload != nil {
		t.Fatalf("lead acquire returned a result: %+v", res)
	}
	payload := []byte("the gzipped delta bytes")
	c.Commit(fl, Result{Reason: 1, Payload: payload, Gzipped: true})
	if ledger != int64(len(payload)) {
		t.Fatalf("ledger = %d after commit, want %d", ledger, len(payload))
	}

	res, fl2, st := c.Acquire(key)
	if st != StatusHit {
		t.Fatalf("second acquire = %v, want StatusHit", st)
	}
	if fl2 != nil {
		t.Fatal("hit returned a non-nil flight")
	}
	if !bytes.Equal(res.Payload, payload) || !res.Gzipped || res.Reason != 1 {
		t.Fatalf("hit result = %+v, want the committed payload", res)
	}
	if &res.Payload[0] != &payload[0] {
		t.Fatal("hit copied the payload; it must alias the committed bytes")
	}

	st2 := c.Stats()
	if st2.Hits != 1 || st2.Misses != 1 || st2.Coalesced != 0 {
		t.Fatalf("stats = %+v, want 1 hit, 1 miss", st2)
	}
	if st2.Entries != 1 || st2.Bytes != int64(len(payload)) {
		t.Fatalf("stats = %+v, want 1 entry of %d bytes", st2, len(payload))
	}
}

// TestNonDeltaOutcomesSharedButNotRetained: a result without a payload (a
// full response, whatever its reason) reaches the waiters with its reason
// but is neither retained nor charged.
func TestNonDeltaOutcomesSharedButNotRetained(t *testing.T) {
	for _, reason := range []uint8{3, 7} {
		var ledger int64
		c := New(8, func(d int64) { ledger += d })
		key := Key{From: 2, DocHash: 7}
		_, fl, st := c.Acquire(key)
		if st != StatusLead {
			t.Fatalf("reason %d: first acquire = %v, want lead", reason, st)
		}
		c.Commit(fl, Result{Reason: reason})
		if got := fl.Wait(); got.Reason != reason {
			t.Fatalf("waiter got reason %d, want %d", got.Reason, reason)
		}
		if ledger != 0 {
			t.Fatalf("reason %d charged %d bytes", reason, ledger)
		}
		if _, _, st := c.Acquire(key); st != StatusLead {
			t.Fatalf("reason %d was retained: re-acquire = %v, want lead", reason, st)
		}
	}
}

func TestCoalescingSharesOneResult(t *testing.T) {
	c := New(8, nil)
	key := Key{From: 3, DocHash: 99, DocLen: 5}
	_, leader, st := c.Acquire(key)
	if st != StatusLead {
		t.Fatalf("acquire = %v, want lead", st)
	}

	const waiters = 16
	results := make([]Result, waiters)
	var wg sync.WaitGroup
	started := make(chan struct{}, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, fl, st := c.Acquire(key)
			started <- struct{}{}
			switch st {
			case StatusCoalesced:
				res = fl.Wait()
			case StatusHit:
			default:
				t.Errorf("waiter %d became leader", i)
				return
			}
			results[i] = res
		}(i)
	}
	for i := 0; i < waiters; i++ {
		<-started
	}
	payload := []byte("shared")
	c.Commit(leader, Result{Reason: 1, Payload: payload})
	wg.Wait()

	for i, res := range results {
		if res.Reason != 1 || !bytes.Equal(res.Payload, payload) {
			t.Fatalf("waiter %d result = %+v, want the leader's", i, res)
		}
		if len(res.Payload) > 0 && &res.Payload[0] != &payload[0] {
			t.Fatalf("waiter %d got a copy, want the shared payload", i)
		}
	}
	if st := c.Stats(); st.Coalesced == 0 {
		t.Fatalf("stats = %+v, want coalesced > 0", st)
	}
}

func TestPurgeUnchargesAndUnmapsInFlight(t *testing.T) {
	var ledger int64
	c := New(8, func(d int64) { ledger += d })

	// One committed entry and one in-flight entry.
	_, fl1, _ := c.Acquire(Key{From: 1})
	c.Commit(fl1, Result{Reason: 1, Payload: make([]byte, 64)})
	_, fl2, st := c.Acquire(Key{From: 2})
	if st != StatusLead {
		t.Fatalf("acquire = %v, want lead", st)
	}

	if freed := c.Purge(); freed != 64 {
		t.Fatalf("Purge freed %d, want 64", freed)
	}
	if ledger != 0 {
		t.Fatalf("ledger = %d after purge, want 0", ledger)
	}
	if c.Stats().Entries != 0 {
		t.Fatalf("len = %d after purge, want 0", c.Stats().Entries)
	}

	// The purged in-flight leader still commits and wakes waiters, but the
	// result is not retained or charged.
	done := make(chan Result, 1)
	go func() { done <- fl2.Wait() }()
	c.Commit(fl2, Result{Reason: 1, Payload: make([]byte, 32)})
	if res := <-done; res.Reason != 1 || len(res.Payload) != 32 {
		t.Fatalf("post-purge waiter result = %+v", res)
	}
	if ledger != 0 || c.Stats().Entries != 0 {
		t.Fatalf("post-purge commit charged (%d bytes, %d entries), want nothing retained", ledger, c.Stats().Entries)
	}
	if _, _, st := c.Acquire(Key{From: 2}); st != StatusLead {
		t.Fatalf("purged key re-acquire = %v, want lead", st)
	}
}

func TestCapEvictsCommittedEntries(t *testing.T) {
	var ledger int64
	c := New(2, func(d int64) { ledger += d })
	for i := 0; i < 5; i++ {
		_, fl, st := c.Acquire(Key{From: i})
		if st != StatusLead {
			t.Fatalf("key %d: acquire = %v, want lead", i, st)
		}
		c.Commit(fl, Result{Reason: 1, Payload: make([]byte, 10)})
	}
	if n := c.Stats().Entries; n > 2 {
		t.Fatalf("len = %d, want <= cap 2", n)
	}
	if want := int64(c.Stats().Entries) * 10; ledger != want {
		t.Fatalf("ledger = %d, want %d (exactly the retained entries)", ledger, want)
	}
}

func TestConcurrentAcquireCommitPurge(t *testing.T) {
	var ledger atomic.Int64
	c := New(32, func(d int64) { ledger.Add(d) })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := Key{From: i % 40, DocHash: uint64(i % 7)}
				res, fl, st := c.Acquire(key)
				switch st {
				case StatusLead:
					out := Result{Reason: 1, Payload: []byte(fmt.Sprintf("g%d-i%d", g, i))}
					if i%5 == 0 {
						out = Result{Reason: 3}
					}
					c.Commit(fl, out)
				case StatusCoalesced:
					res = fl.Wait()
					_ = res
				case StatusHit:
					if len(res.Payload) == 0 {
						t.Errorf("hit on a result without a payload: %+v", res)
						return
					}
				}
				if i%37 == 0 {
					c.Purge()
				}
			}
		}(g)
	}
	wg.Wait()
	c.Purge()
	if got := ledger.Load(); got != 0 {
		t.Fatalf("ledger residue after final purge: %d", got)
	}
	if got := c.Stats().Bytes; got != 0 {
		t.Fatalf("cache bytes after final purge: %d", got)
	}
}
