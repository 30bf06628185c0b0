// Package anonymize implements the base-file anonymization process of
// Section V.
//
// A class's base-file is distributed to (and stored by) many clients, so it
// must not carry private information such as credit-card numbers. The
// process compares the base-file against the documents of N requests from
// distinct users, counts for every aligned byte-chunk of the base-file how
// often it was common with another user's document, and removes chunks seen
// fewer than M times. Private information is unique to a user, so it is
// never common with other users' documents and is always removed; M > 1
// additionally protects information shared by a few users (e.g. corporate
// credit cards).
package anonymize

import (
	"errors"
	"fmt"
	"sync"

	"cbde/internal/vdelta"
)

// Defaults follow the paper's rule of thumb that N should be at least twice
// M, and Table IV's middle configuration.
const (
	DefaultChunkSize = 4
	DefaultM         = 2
	DefaultN         = 5
	// DefaultMatchRun is the minimum common-substring length for a chunk
	// to count as common with another user's document. Vdelta seeds
	// matches with chunk hashes but uses maximally extended runs; bare
	// chunk-width occurrences would count incidental collisions ("the ",
	// "<div") as common and leave private regions in place.
	DefaultMatchRun = 16
)

// ErrNotDone is returned by Result before N distinct-user comparisons have
// completed: an un-anonymized base-file must never be distributed.
var ErrNotDone = errors.New("anonymize: process has not seen N distinct users yet")

// Config parametrizes an anonymization Process.
type Config struct {
	// ChunkSize is the width of the base-file byte-chunks whose
	// commonality is counted. The paper uses Vdelta's four-byte chunks.
	ChunkSize int
	// M is the minimum number of distinct-user documents a chunk must be
	// common with to survive. M=0 disables anonymization (no privacy),
	// M=1 is the basic scheme, larger M (<= N) increases privacy at the
	// cost of smaller base-files and larger deltas.
	M int
	// N is the number of distinct-user comparisons required before the
	// anonymized base-file can be produced. Rule of thumb: N >= 2*M.
	N int
	// MatchRun is the minimum common-substring length for a base chunk to
	// count as common with a compared document. Default 16; values at or
	// below ChunkSize reduce to bare chunk occurrence (the literal paper
	// formulation).
	MatchRun int
}

func (c Config) withDefaults() Config {
	if c.ChunkSize <= 0 {
		c.ChunkSize = DefaultChunkSize
	}
	if c.M < 0 {
		c.M = DefaultM
	}
	if c.N <= 0 {
		c.N = DefaultN
	}
	if c.M > c.N {
		c.M = c.N
	}
	if c.MatchRun == 0 {
		c.MatchRun = DefaultMatchRun
	}
	return c
}

// Process anonymizes one base-file. It is safe for concurrent use:
// comparisons of different users run in parallel, and since the counters
// are sums, the order they land in does not matter.
type Process struct {
	cfg   Config
	base  []byte
	owner string

	mu       sync.Mutex
	counters []int
	users    map[string]struct{}
	// reserved counts the users admitted to compare (at most N);
	// comparisons counts those whose scan has been added to counters.
	reserved    int
	comparisons int
}

// NewProcess starts anonymizing base. ownerID identifies the user whose
// request produced the base-file; per footnote 5, comparisons against that
// user's own documents do not count.
func NewProcess(base []byte, ownerID string, cfg Config) *Process {
	cfg = cfg.withDefaults()
	numChunks := (len(base) + cfg.ChunkSize - 1) / cfg.ChunkSize
	b := make([]byte, len(base))
	copy(b, base)
	return &Process{
		cfg:      cfg,
		base:     b,
		owner:    ownerID,
		counters: make([]int, numChunks),
		users:    make(map[string]struct{}),
	}
}

// Wants reports whether a Compare by userID would count now: fewer than N
// users are admitted, userID is not the base-file's owner, and it has not
// been admitted before.
func (p *Process) Wants(userID string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wantsLocked(userID)
}

func (p *Process) wantsLocked(userID string) bool {
	if p.reserved >= p.cfg.N || userID == p.owner {
		return false
	}
	_, seen := p.users[userID]
	return !seen
}

// Compare feeds one document into the process. It increments the counters
// of every base-file chunk common between the base-file and doc, provided
// userID is a new distinct user different from the base-file's owner.
// It reports whether the comparison counted toward the N required. The
// scan runs outside the process's lock, which is held only to admit the
// user and to add the scan's result.
func (p *Process) Compare(doc []byte, userID string) bool {
	p.mu.Lock()
	if !p.wantsLocked(userID) {
		p.mu.Unlock()
		return false
	}
	p.users[userID] = struct{}{}
	p.reserved++
	p.mu.Unlock()

	common := vdelta.CommonChunksRun(p.base, doc, p.cfg.ChunkSize, p.cfg.MatchRun)

	p.mu.Lock()
	defer p.mu.Unlock()
	for i, c := range common {
		if c {
			p.counters[i]++
		}
	}
	p.comparisons++
	return true
}

// Done reports whether the required N distinct-user comparisons completed,
// their counts added.
func (p *Process) Done() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.comparisons >= p.cfg.N
}

// Progress returns how many comparisons have completed and how many are
// required.
func (p *Process) Progress() (done, needed int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.comparisons, p.cfg.N
}

// Result returns the anonymized base-file: the concatenation of the chunks
// whose counters reached M. It returns ErrNotDone until N comparisons have
// completed, because distributing an un-anonymized base-file would leak
// private data.
func (p *Process) Result() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.comparisons < p.cfg.N {
		return nil, fmt.Errorf("%w (%d of %d)", ErrNotDone, p.comparisons, p.cfg.N)
	}
	if p.cfg.M == 0 {
		out := make([]byte, len(p.base))
		copy(out, p.base)
		return out, nil
	}
	out := make([]byte, 0, len(p.base))
	for ci, count := range p.counters {
		if count < p.cfg.M {
			continue
		}
		lo := ci * p.cfg.ChunkSize
		hi := lo + p.cfg.ChunkSize
		if hi > len(p.base) {
			hi = len(p.base)
		}
		out = append(out, p.base[lo:hi]...)
	}
	return out, nil
}

// ChunkCounters returns a copy of the per-chunk commonality counters, for
// experiments and debugging.
func (p *Process) ChunkCounters() []int {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]int, len(p.counters))
	copy(out, p.counters)
	return out
}

// Anonymize is a one-shot convenience: it runs a full process over docs
// (attributed to synthetic distinct users) and returns the anonymized
// base-file. Only the first cfg.N documents are used; it returns ErrNotDone
// if fewer are supplied.
func Anonymize(base []byte, docs [][]byte, cfg Config) ([]byte, error) {
	p := NewProcess(base, "__owner__", cfg)
	for i, doc := range docs {
		p.Compare(doc, fmt.Sprintf("user-%d", i))
		if p.Done() {
			break
		}
	}
	return p.Result()
}
