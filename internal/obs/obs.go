// Package obs is the delta-server's lightweight pipeline tracer: it records
// where time and bytes go per request, per stage — route/classify, base-file
// selection, anonymization scan, delta encode, gzip — so the paper's
// per-request transfer accounting (Tables II–IV) can be reproduced live on a
// serving system instead of only in offline harnesses.
//
// The tracer is allocation-conscious by construction:
//
//   - Disabled (the default), Tracer.Start returns nil after one atomic
//     load, and every method on a nil *Trace is a no-op that never calls
//     time.Now. The serving hot path pays nothing and stays inside the
//     engine's AllocsPerRun budgets.
//   - Enabled, traces come from a sync.Pool and stage records live in a
//     fixed-size array, so a steady-state traced request allocates only the
//     Summary it hands back to the caller.
//
// Only the standard library is used.
package obs

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Stage identifies one pipeline stage of core.Engine.Process.
type Stage uint8

const (
	// StageRoute is URL partitioning plus class grouping (Section III).
	StageRoute Stage = iota
	// StageSelect is the base-file selector observation and the base
	// snapshot, taken under the class lock (Section IV).
	StageSelect
	// StageAnon is the anonymization comparison scan (Section V).
	StageAnon
	// StageMemo is the memoized-delta cache consult: the lookup itself
	// plus, for coalesced requests, the wait for the leader's encode.
	// Zero when the cache is disabled or the request misses cold.
	StageMemo
	// StageEncode is the vdelta delta encode.
	StageEncode
	// StageGzip is delta compression.
	StageGzip
	// StageEvict is store budget maintenance: the prune/evict sweep that
	// runs after the response is built when resident bytes exceed the
	// memory budget. Zero for unbudgeted engines and under-budget requests.
	StageEvict
	// StageForward is the cluster tier's intra-tier hop: the time a
	// non-owning node spends proxying the request to the class owner.
	// Zero for standalone servers and owner-served requests.
	StageForward
	// StageFaultIn is the disk tier's fault-in: reading, verifying, and
	// decoding a spilled class's blob and re-installing it so the request
	// can be served as a delta instead of a full response.
	StageFaultIn

	// NumStages is the number of stages; valid stages are < NumStages.
	NumStages
)

var stageNames = [NumStages]string{"route", "select", "anon", "memo", "encode", "gzip", "evict", "forward", "faultin"}

// String implements fmt.Stringer.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return fmt.Sprintf("Stage(%d)", uint8(s))
}

// Stages lists every stage in pipeline order, for callers that pre-resolve
// per-stage metrics.
func Stages() [NumStages]Stage {
	return [NumStages]Stage{StageRoute, StageSelect, StageAnon, StageMemo, StageEncode, StageGzip, StageEvict, StageForward, StageFaultIn}
}

// Span is the accumulated cost of one stage within one trace.
type Span struct {
	// Dur is the total time spent in the stage.
	Dur time.Duration
	// Bytes is the stage's byte count; what it counts is stage-specific
	// (documents routed, deltas produced, gzip output, ...).
	Bytes int64
}

// Trace records one request's walk through the pipeline. Obtain one from
// Tracer.Start; a nil *Trace is valid and all its methods are no-ops, which
// is how disabled tracing stays free on the hot path.
type Trace struct {
	id     uint64
	ctx    TraceContext
	start  time.Time
	spans  [NumStages]Span
	tracer *Tracer
}

// Now returns the current time, or the zero Time on a nil trace so that
// disabled tracing never consults the clock.
func (tr *Trace) Now() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// Record accumulates the elapsed time since start (obtained from Now) and
// bytes into the stage's span. No-op on a nil trace.
func (tr *Trace) Record(s Stage, start time.Time, bytes int64) {
	if tr == nil || s >= NumStages {
		return
	}
	tr.spans[s].Dur += time.Since(start)
	tr.spans[s].Bytes += bytes
}

// AddBytes accumulates bytes into the stage's span without touching its
// timing. No-op on a nil trace.
func (tr *Trace) AddBytes(s Stage, bytes int64) {
	if tr == nil || s >= NumStages {
		return
	}
	tr.spans[s].Bytes += bytes
}

// ID returns the trace's sequence number, or 0 on a nil trace.
func (tr *Trace) ID() uint64 {
	if tr == nil {
		return 0
	}
	return tr.id
}

// Ctx returns the distributed trace context the trace was started with, or
// the zero context on a nil trace.
func (tr *Trace) Ctx() TraceContext {
	if tr == nil {
		return TraceContext{}
	}
	return tr.ctx
}

// Summary is the immutable, caller-owned digest of a finished trace — what
// the engine attaches to a Response and the delta-server writes to its
// request log.
type Summary struct {
	// ID is the tracer-unique request sequence number.
	ID uint64
	// Ctx is the distributed trace context the trace carried; zero when the
	// request had none.
	Ctx TraceContext
	// Total is the wall time from Start to Finish.
	Total time.Duration
	// Stages holds the per-stage spans, indexed by Stage.
	Stages [NumStages]Span
}

// String renders the summary as a compact single-line span list, e.g.
//
//	total=1.2ms route=80µs select=40µs anon=0s encode=900µs[12345B] gzip=150µs[4321B]
//
// Stages that never ran (zero duration and bytes) are still printed so log
// lines stay fixed-shape and grep-friendly.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "total=%s", s.Total)
	for st, sp := range s.Stages {
		fmt.Fprintf(&b, " %s=%s", Stage(st), sp.Dur)
		if sp.Bytes != 0 {
			fmt.Fprintf(&b, "[%dB]", sp.Bytes)
		}
	}
	return b.String()
}

// Tracer issues traces and hands finished ones to a completion callback
// (typically recording per-stage histograms). The zero value is a valid,
// permanently disabled tracer; create a usable one with New.
type Tracer struct {
	enabled    atomic.Bool
	seq        atomic.Uint64
	pool       sync.Pool
	onComplete func(*Trace)
}

// New returns a disabled Tracer that invokes onComplete (may be nil) for
// every finished trace before recycling it. The callback must not retain
// the *Trace past its return.
func New(onComplete func(*Trace)) *Tracer {
	return &Tracer{onComplete: onComplete}
}

// SetEnabled switches tracing on or off. Safe to flip at runtime; requests
// already in flight finish with whatever mode they started under. Safe on a
// nil receiver (no-op).
func (t *Tracer) SetEnabled(enabled bool) {
	if t == nil {
		return
	}
	t.enabled.Store(enabled)
}

// Enabled reports whether tracing is on. False on a nil receiver.
func (t *Tracer) Enabled() bool {
	return t != nil && t.enabled.Load()
}

// Start begins a trace, or returns nil when tracing is disabled (or t is
// nil). The disabled path is a single atomic load with zero allocations.
func (t *Tracer) Start() *Trace {
	return t.StartCtx(TraceContext{})
}

// StartCtx begins a trace carrying a distributed trace context, so the
// finished Summary (and anything recorded from it) can be joined with the
// other hops of the same request. The zero context is allowed and equivalent
// to Start.
func (t *Tracer) StartCtx(ctx TraceContext) *Trace {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	tr, _ := t.pool.Get().(*Trace)
	if tr == nil {
		tr = &Trace{}
	}
	tr.id = t.seq.Add(1)
	tr.ctx = ctx
	tr.start = time.Now()
	tr.spans = [NumStages]Span{}
	tr.tracer = t
	return tr
}

// Finish completes the trace: the completion callback observes it, a
// caller-owned Summary is built, and the trace returns to the pool. Returns
// nil on a nil trace, and on a trace already finished or discarded — the
// first Finish/Discard wins and later calls are no-ops, so a confused caller
// can never double-Put into the pool (which would hand the same *Trace to
// two concurrent requests). The *Trace must not be used after Finish.
func (tr *Trace) Finish() *Summary {
	if tr == nil {
		return nil
	}
	t := tr.tracer
	if t == nil {
		return nil // already finished or discarded
	}
	tr.tracer = nil
	sum := &Summary{
		ID:     tr.id,
		Ctx:    tr.ctx,
		Total:  time.Since(tr.start),
		Stages: tr.spans,
	}
	if t.onComplete != nil {
		t.onComplete(tr)
	}
	t.pool.Put(tr)
	return sum
}

// Discard abandons the trace without invoking the completion callback,
// returning it to the pool. For request paths that error out before
// producing a response. No-op on a nil trace and on one already finished or
// discarded (same double-Put guard as Finish).
func (tr *Trace) Discard() {
	if tr == nil {
		return
	}
	t := tr.tracer
	if t == nil {
		return // already finished or discarded
	}
	tr.tracer = nil
	t.pool.Put(tr)
}

// Span returns the stage's span. The zero Span on a nil trace or an
// out-of-range stage.
func (tr *Trace) Span(s Stage) Span {
	if tr == nil || s >= NumStages {
		return Span{}
	}
	return tr.spans[s]
}
