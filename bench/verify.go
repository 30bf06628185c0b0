package main

import (
	"hash/maphash"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"cbde/internal/origin"
)

// digestTable is how every reconstructed document is verified without a
// second fetch: the origin wrapper records a 64-bit digest of each body it
// serves, keyed by (path, user); the driver digests what the client
// reconstructed and requires it to equal a digest the origin served for the
// same key after the request began.
type digestTable struct {
	seed maphash.Seed
	// serves numbers the origin's responses; a request only accepts digests
	// numbered after the value it read before it started.
	serves atomic.Uint64
	// hashNS is wall time spent digesting (both sides), accumulated only
	// while timed is set: the numerator of driver.verify_cpu_frac.
	timed  atomic.Bool
	hashNS atomic.Int64

	shards [64]digestShard
}

type digestShard struct {
	mu sync.Mutex
	m  map[string]*servedRing
}

// servedRing keeps the last few digests served for one key: content ticks
// can move the document between a request's origin fetch and its
// neighbours', but never by more than a handful of versions in flight.
type servedRing struct {
	n   int
	seq [8]uint64
	sum [8]uint64
}

func newDigestTable() *digestTable {
	t := &digestTable{seed: maphash.MakeSeed()}
	for i := range t.shards {
		t.shards[i].m = make(map[string]*servedRing)
	}
	return t
}

func (t *digestTable) digest(b []byte) uint64 {
	if !t.timed.Load() {
		return maphash.Bytes(t.seed, b)
	}
	t0 := time.Now()
	h := maphash.Bytes(t.seed, b)
	t.hashNS.Add(int64(time.Since(t0)))
	return h
}

func (t *digestTable) shard(key string) *digestShard {
	return &t.shards[maphash.String(t.seed, key)%uint64(len(t.shards))]
}

func (t *digestTable) record(key string, sum uint64) {
	seq := t.serves.Add(1)
	sh := t.shard(key)
	sh.mu.Lock()
	r := sh.m[key]
	if r == nil {
		r = &servedRing{}
		sh.m[key] = r
	}
	i := r.n % len(r.seq)
	r.seq[i], r.sum[i] = seq, sum
	r.n++
	sh.mu.Unlock()
}

// served reports whether the origin served a body with this digest for key
// after serve number since.
func (t *digestTable) served(key string, sum, since uint64) bool {
	sh := t.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := sh.m[key]
	if r == nil {
		return false
	}
	for i := 0; i < len(r.seq) && i < r.n; i++ {
		if r.seq[i] > since && r.sum[i] == sum {
			return true
		}
	}
	return false
}

func digestKey(path, user string) string { return path + "\x00" + user }

// bodyDigester captures what the origin handler writes.
type bodyDigester struct {
	http.ResponseWriter
	status int
	body   []byte
}

func (w *bodyDigester) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *bodyDigester) Write(p []byte) (int, error) {
	// The site handler writes each document in a single call; appending
	// keeps the digest right if that ever changes.
	if w.body == nil {
		w.body = p
	} else {
		w.body = append(w.body[:len(w.body):len(w.body)], p...)
	}
	return w.ResponseWriter.Write(p)
}

// recordDigests wraps the origin's handler so every 200 body is digested
// under its (path, user) key.
func recordDigests(t *digestTable, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		bw := &bodyDigester{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(bw, r)
		if bw.status == http.StatusOK {
			t.record(digestKey(r.URL.RequestURI(), r.Header.Get(origin.UserHeader)), t.digest(bw.body))
		}
	})
}
