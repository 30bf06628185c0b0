// Package flightrec is the delta-server's always-on flight recorder: a
// fixed-size ring buffer that keeps a compact record of every recent
// request and tail-samples full per-stage span detail for the requests
// worth explaining — the slow ones, the forward errors, the disk fault-ins,
// and the full-response degradations. It is the retention half of the
// distributed tracing layer: the trace context (internal/obs) gives every
// hop of a request one ID, and the recorder is where a node keeps what it
// saw under that ID so /_cbde/trace can serve it back.
//
// Recording is designed for the serving hot path:
//
//   - Zero allocations per record. The caller passes a Record by value; it
//     is copied into a pre-allocated slot. AllocsPerRun-enforced.
//   - No cross-request contention. Writers claim slots with one atomic
//     fetch-add; the per-slot mutex only serializes a writer against a
//     concurrent reader (or a lapped writer) on that one slot, so
//     concurrent requests never touch the same lock.
//
// Only the standard library is used.
package flightrec

import (
	"fmt"
	"io"
	"math/bits"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cbde/internal/metrics"
	"cbde/internal/obs"
)

// Outcome classifies how a request left the server, mirroring the
// delta-server's request-log outcomes.
type Outcome uint8

const (
	// OutcomeUnknown is the zero value; records never carry it.
	OutcomeUnknown Outcome = iota
	// OutcomeDelta is a delta response.
	OutcomeDelta
	// OutcomeFull is a full-document response (no usable base).
	OutcomeFull
	// OutcomePassthrough is a response to a non-delta-capable client.
	OutcomePassthrough
	// OutcomeForwarded means the request was proxied to the owning peer.
	OutcomeForwarded
	// OutcomeRedirected means the client was 307-redirected to the owner.
	OutcomeRedirected
	// OutcomeOriginError means the origin fetch failed.
	OutcomeOriginError
	// OutcomeEngineError means the engine rejected the request.
	OutcomeEngineError

	numOutcomes
)

var outcomeNames = [numOutcomes]string{
	"unknown", "delta", "full", "passthrough",
	"forwarded", "redirected", "origin-error", "engine-error",
}

// String implements fmt.Stringer.
func (o Outcome) String() string {
	if o < numOutcomes {
		return outcomeNames[o]
	}
	return fmt.Sprintf("Outcome(%d)", uint8(o))
}

// ParseOutcome maps an outcome name (as emitted in NDJSON and accepted by
// the ?outcome= filter) back to its value; false for unknown names.
func ParseOutcome(s string) (Outcome, bool) {
	for o := OutcomeDelta; o < numOutcomes; o++ {
		if outcomeNames[o] == s {
			return o, true
		}
	}
	return OutcomeUnknown, false
}

// Reason is a bitmask of why a record was tail-sampled.
type Reason uint8

const (
	// ReasonSlow: total latency at or over the sampling threshold.
	ReasonSlow Reason = 1 << iota
	// ReasonForwardError: the intra-tier forward failed and the request
	// fell back to local serving.
	ReasonForwardError
	// ReasonFaultIn: the request paid a disk fault-in.
	ReasonFaultIn
	// ReasonDegraded: a delta-capable client got a full response.
	ReasonDegraded
	// ReasonError: the request errored (origin or engine).
	ReasonError
)

var reasonNames = []struct {
	bit  Reason
	name string
}{
	{ReasonSlow, "slow"},
	{ReasonForwardError, "forward-error"},
	{ReasonFaultIn, "fault-in"},
	{ReasonDegraded, "degraded"},
	{ReasonError, "error"},
}

// Record is one request's flight-recorder entry. The compact fields are
// always kept; Spans survive only on tail-sampled records.
type Record struct {
	// Seq is the recorder-assigned sequence number (1-based), set by
	// Record; newer records have higher Seq.
	Seq uint64
	// Trace is the request's distributed trace context (zero if none).
	Trace obs.TraceContext
	// Node is the recording node's ID.
	Node string
	// Class is the document's class ID, if resolved.
	Class string
	// Outcome classifies the response.
	Outcome Outcome
	// EngineReason names the engine's core.Reason for the response ("" if
	// the engine did not answer), e.g. "version_aged_out".
	EngineReason string
	// Start is the request arrival time, Unix nanoseconds.
	Start int64
	// Total is the server-side wall time for the request.
	Total time.Duration
	// DocBytes and WireBytes are the document snapshot size and the bytes
	// actually shipped to the client.
	DocBytes, WireBytes int64
	// Reasons carries the caller-observed sampling triggers (forward
	// error, fault-in, degradation, error); Record adds ReasonSlow.
	Reasons Reason
	// Sampled reports whether full span detail was retained; set by Record.
	Sampled bool
	// Spans is the per-stage detail from the engine trace. Zeroed by
	// Record on unsampled entries so the ring holds detail only for
	// outliers.
	Spans [obs.NumStages]obs.Span
}

// slot is one ring entry. The mutex is per-slot, so writers of different
// requests never contend; it exists to keep a reader (or a lapped writer)
// from seeing a torn multi-word record.
type slot struct {
	mu sync.Mutex
	r  Record
}

// Recorder is the ring buffer. Create one with New; a nil *Recorder is
// valid and records nothing.
type Recorder struct {
	node      string
	threshold time.Duration
	mask      uint64
	cursor    atomic.Uint64
	slots     []slot

	recorded atomic.Uint64
	sampled  atomic.Uint64
}

// New returns a recorder for node with the given ring size (rounded up to a
// power of two, minimum 16) and tail-sampling latency threshold. A
// threshold <= 0 samples every request — the CI smoke setting.
func New(node string, size int, threshold time.Duration) *Recorder {
	if size < 16 {
		size = 16
	}
	n := 1 << bits.Len(uint(size-1)) // next power of two
	return &Recorder{
		node:      node,
		threshold: threshold,
		mask:      uint64(n - 1),
		slots:     make([]slot, n),
	}
}

// Node returns the recorder's node ID ("" on nil).
func (r *Recorder) Node() string {
	if r == nil {
		return ""
	}
	return r.node
}

// Threshold returns the tail-sampling latency threshold.
func (r *Recorder) Threshold() time.Duration {
	if r == nil {
		return 0
	}
	return r.threshold
}

// Len returns the ring capacity (0 on nil).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// Record stores one request record, deciding tail sampling: span detail is
// kept when the request crossed the latency threshold (or the threshold is
// <= 0) or the caller flagged a Reason; otherwise Spans are zeroed and only
// the compact summary survives. Safe for concurrent use; allocation-free;
// no-op on a nil recorder.
func (r *Recorder) Record(rec Record) {
	if r == nil {
		return
	}
	rec.Node = r.node
	if rec.Total >= r.threshold {
		rec.Reasons |= ReasonSlow
	}
	rec.Sampled = rec.Reasons != 0
	if !rec.Sampled {
		rec.Spans = [obs.NumStages]obs.Span{}
	}
	seq := r.cursor.Add(1)
	rec.Seq = seq
	s := &r.slots[(seq-1)&r.mask]
	s.mu.Lock()
	s.r = rec
	s.mu.Unlock()
	r.recorded.Add(1)
	if rec.Sampled {
		r.sampled.Add(1)
	}
}

// Filter selects records for Snapshot and WriteNDJSON. The zero Filter
// matches everything.
type Filter struct {
	// Class, when non-empty, matches records of that class only.
	Class string
	// Min drops records faster than this total latency.
	Min time.Duration
	// Outcome, when not OutcomeUnknown, matches that outcome only.
	Outcome Outcome
	// Trace, when non-zero, matches records of that trace ID only.
	Trace obs.TraceID
	// SampledOnly keeps only tail-sampled records.
	SampledOnly bool
	// Limit caps the number of records returned (newest first); <= 0
	// means no cap.
	Limit int
}

func (f Filter) match(rec *Record) bool {
	if rec.Seq == 0 || rec.Outcome == OutcomeUnknown {
		return false // never written
	}
	if f.Class != "" && rec.Class != f.Class {
		return false
	}
	if rec.Total < f.Min {
		return false
	}
	if f.Outcome != OutcomeUnknown && rec.Outcome != f.Outcome {
		return false
	}
	if !f.Trace.IsZero() && rec.Trace.ID != f.Trace {
		return false
	}
	if f.SampledOnly && !rec.Sampled {
		return false
	}
	return true
}

// Snapshot copies out the matching records, newest first. The copy is
// slot-by-slot, so records written during the scan may be missed or appear
// once — the ring is a diagnostic window, not a log.
func (r *Recorder) Snapshot(f Filter) []Record {
	if r == nil {
		return nil
	}
	cur := r.cursor.Load()
	n := uint64(len(r.slots))
	if cur < n {
		n = cur
	}
	var out []Record
	for i := uint64(0); i < n; i++ {
		s := &r.slots[(cur-1-i)&r.mask]
		s.mu.Lock()
		rec := s.r
		s.mu.Unlock()
		if !f.match(&rec) {
			continue
		}
		out = append(out, rec)
		if f.Limit > 0 && len(out) >= f.Limit {
			break
		}
	}
	return out
}

// WriteNDJSON streams the matching records, newest first, one JSON object
// per line, and returns how many it wrote. The encoding is hand-rolled
// (strconv, no reflection) so a scrape of a full ring stays cheap.
func (r *Recorder) WriteNDJSON(w io.Writer, f Filter) (int, error) {
	recs := r.Snapshot(f)
	buf := make([]byte, 0, 512)
	for _, rec := range recs {
		buf = appendRecordJSON(buf[:0], &rec)
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return 0, err
		}
	}
	return len(recs), nil
}

// appendRecordJSON renders one record as a single-line JSON object.
func appendRecordJSON(b []byte, rec *Record) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, rec.Seq, 10)
	if !rec.Trace.IsZero() {
		b = append(b, `,"trace":"`...)
		b = append(b, rec.Trace.ID.String()...)
		b = append(b, `","origin":`...)
		b = strconv.AppendQuote(b, rec.Trace.Origin)
		b = append(b, `,"hop":`...)
		b = strconv.AppendInt(b, int64(rec.Trace.Hop), 10)
	}
	b = append(b, `,"node":`...)
	b = strconv.AppendQuote(b, rec.Node)
	if rec.Class != "" {
		b = append(b, `,"class":`...)
		b = strconv.AppendQuote(b, rec.Class)
	}
	b = append(b, `,"outcome":"`...)
	b = append(b, rec.Outcome.String()...)
	b = append(b, '"')
	if rec.EngineReason != "" {
		b = append(b, `,"reason":`...)
		b = strconv.AppendQuote(b, rec.EngineReason)
	}
	b = append(b, `,"startUnixNano":`...)
	b = strconv.AppendInt(b, rec.Start, 10)
	b = append(b, `,"totalUs":`...)
	b = strconv.AppendInt(b, rec.Total.Microseconds(), 10)
	b = append(b, `,"docBytes":`...)
	b = strconv.AppendInt(b, rec.DocBytes, 10)
	b = append(b, `,"wireBytes":`...)
	b = strconv.AppendInt(b, rec.WireBytes, 10)
	b = append(b, `,"sampled":`...)
	b = strconv.AppendBool(b, rec.Sampled)
	if rec.Reasons != 0 {
		b = append(b, `,"reasons":[`...)
		first := true
		for _, rn := range reasonNames {
			if rec.Reasons&rn.bit == 0 {
				continue
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			b = append(b, '"')
			b = append(b, rn.name...)
			b = append(b, '"')
		}
		b = append(b, ']')
	}
	if rec.Sampled {
		b = append(b, `,"spans":[`...)
		first := true
		for st, sp := range rec.Spans {
			if sp.Dur == 0 && sp.Bytes == 0 {
				continue
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			b = append(b, `{"stage":"`...)
			b = append(b, obs.Stage(st).String()...)
			b = append(b, `","us":`...)
			b = strconv.AppendInt(b, sp.Dur.Microseconds(), 10)
			b = append(b, `,"bytes":`...)
			b = strconv.AppendInt(b, sp.Bytes, 10)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = append(b, '}')
	return b
}

// RegisterMetrics contributes the recorder's counters to a registry:
// records written, records tail-sampled, and the ring capacity.
func (r *Recorder) RegisterMetrics(reg *metrics.Registry) {
	if r == nil || reg == nil {
		return
	}
	reg.RegisterCollector(func(c *metrics.Collection) {
		c.Counter("cbde_flightrec_records_total",
			"Requests written to the flight-recorder ring.",
			nil, float64(r.recorded.Load()))
		c.Counter("cbde_flightrec_sampled_total",
			"Flight-recorder records retained with full span detail.",
			nil, float64(r.sampled.Load()))
		c.Gauge("cbde_flightrec_ring_size",
			"Flight-recorder ring capacity in records.",
			nil, float64(len(r.slots)))
	})
}
