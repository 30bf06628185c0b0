package flightrec

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"cbde/internal/metrics"
	"cbde/internal/obs"
	"cbde/internal/testutil"
)

func ctxN(lo uint64) obs.TraceContext {
	return obs.TraceContext{ID: obs.TraceID{Lo: lo}, Origin: "n0"}
}

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Record(Record{Outcome: OutcomeDelta})
	if got := r.Snapshot(Filter{}); got != nil {
		t.Fatalf("nil Snapshot = %v", got)
	}
	if n, err := r.WriteNDJSON(&strings.Builder{}, Filter{}); n != 0 || err != nil {
		t.Fatalf("nil WriteNDJSON = %d, %v", n, err)
	}
	if r.Len() != 0 || r.Node() != "" {
		t.Fatal("nil accessors not zero")
	}
}

func TestTailSamplingPolicy(t *testing.T) {
	r := New("n0", 16, 10*time.Millisecond)
	spans := [obs.NumStages]obs.Span{}
	spans[obs.StageEncode] = obs.Span{Dur: time.Millisecond, Bytes: 42}

	// Fast and unremarkable: compact only, spans dropped.
	r.Record(Record{Trace: ctxN(1), Outcome: OutcomeDelta, Total: time.Millisecond, Spans: spans})
	// Slow: sampled, spans kept.
	r.Record(Record{Trace: ctxN(2), Outcome: OutcomeDelta, Total: 50 * time.Millisecond, Spans: spans})
	// Fast but flagged by the caller: sampled.
	r.Record(Record{Trace: ctxN(3), Outcome: OutcomeFull, Total: time.Millisecond, Reasons: ReasonForwardError, Spans: spans})

	recs := r.Snapshot(Filter{})
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	byLo := make(map[uint64]Record)
	for _, rec := range recs {
		byLo[rec.Trace.ID.Lo] = rec
	}
	if fast := byLo[1]; fast.Sampled || fast.Spans[obs.StageEncode].Bytes != 0 {
		t.Errorf("fast record sampled=%v spans=%+v, want compact", fast.Sampled, fast.Spans[obs.StageEncode])
	}
	if slow := byLo[2]; !slow.Sampled || slow.Reasons&ReasonSlow == 0 || slow.Spans[obs.StageEncode].Bytes != 42 {
		t.Errorf("slow record = %+v, want sampled with spans", slow)
	}
	if flagged := byLo[3]; !flagged.Sampled || flagged.Reasons&ReasonForwardError == 0 {
		t.Errorf("flagged record = %+v, want sampled", flagged)
	}
	if rec := byLo[2]; rec.Node != "n0" {
		t.Errorf("node = %q", rec.Node)
	}

	// Threshold 0 samples everything.
	all := New("n0", 16, 0)
	all.Record(Record{Trace: ctxN(9), Outcome: OutcomeDelta, Total: time.Nanosecond})
	if recs := all.Snapshot(Filter{}); len(recs) != 1 || !recs[0].Sampled {
		t.Errorf("threshold-0 record not sampled: %+v", recs)
	}
}

func TestRingWraparound(t *testing.T) {
	r := New("n0", 16, 0) // 16 slots
	for i := 1; i <= 40; i++ {
		r.Record(Record{Trace: ctxN(uint64(i)), Outcome: OutcomeDelta, Total: time.Duration(i) * time.Millisecond})
	}
	recs := r.Snapshot(Filter{})
	if len(recs) != 16 {
		t.Fatalf("after wrap got %d records, want 16", len(recs))
	}
	// Newest first: traces 40 down to 25 survive.
	for i, rec := range recs {
		if want := uint64(40 - i); rec.Trace.ID.Lo != want {
			t.Fatalf("recs[%d].Trace.Lo = %d, want %d", i, rec.Trace.ID.Lo, want)
		}
	}
}

func TestSnapshotFilters(t *testing.T) {
	r := New("n0", 32, 0)
	r.Record(Record{Trace: ctxN(1), Class: "a", Outcome: OutcomeDelta, Total: 5 * time.Millisecond})
	r.Record(Record{Trace: ctxN(2), Class: "b", Outcome: OutcomeFull, Total: 50 * time.Millisecond})
	r.Record(Record{Trace: ctxN(3), Class: "a", Outcome: OutcomeForwarded, Total: 500 * time.Millisecond})

	if got := r.Snapshot(Filter{Class: "a"}); len(got) != 2 {
		t.Errorf("class filter: %d records", len(got))
	}
	if got := r.Snapshot(Filter{Min: 40 * time.Millisecond}); len(got) != 2 {
		t.Errorf("min filter: %d records", len(got))
	}
	if got := r.Snapshot(Filter{Outcome: OutcomeFull}); len(got) != 1 || got[0].Trace.ID.Lo != 2 {
		t.Errorf("outcome filter: %+v", got)
	}
	if got := r.Snapshot(Filter{Trace: obs.TraceID{Lo: 3}}); len(got) != 1 || got[0].Class != "a" {
		t.Errorf("trace filter: %+v", got)
	}
	if got := r.Snapshot(Filter{Limit: 1}); len(got) != 1 || got[0].Trace.ID.Lo != 3 {
		t.Errorf("limit filter: %+v", got)
	}
}

func TestWriteNDJSON(t *testing.T) {
	r := New("n1", 16, 0)
	spans := [obs.NumStages]obs.Span{}
	spans[obs.StageGzip] = obs.Span{Dur: 123 * time.Microsecond, Bytes: 77}
	r.Record(Record{
		Trace:        obs.TraceContext{ID: obs.TraceID{Hi: 0xab, Lo: 0xcd}, Origin: "n0", Hop: 1},
		Class:        "www.shop.com/laptops",
		Outcome:      OutcomeDelta,
		EngineReason: "chain",
		Start:        1_000_000,
		Total:        3 * time.Millisecond,
		DocBytes:     1000, WireBytes: 80,
		Spans: spans,
	})
	var sb strings.Builder
	n, err := r.WriteNDJSON(&sb, Filter{})
	if err != nil || n != 1 {
		t.Fatalf("WriteNDJSON = %d, %v", n, err)
	}
	line := strings.TrimSpace(sb.String())
	var m map[string]any
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		t.Fatalf("record is not JSON: %v\n%s", err, line)
	}
	if m["trace"] != "00000000000000ab00000000000000cd" {
		t.Errorf("trace = %v", m["trace"])
	}
	if m["node"] != "n1" || m["origin"] != "n0" || m["hop"] != float64(1) {
		t.Errorf("node/origin/hop = %v/%v/%v", m["node"], m["origin"], m["hop"])
	}
	if m["outcome"] != "delta" || m["reason"] != "chain" || m["class"] != "www.shop.com/laptops" {
		t.Errorf("outcome/reason/class = %v/%v/%v", m["outcome"], m["reason"], m["class"])
	}
	if m["sampled"] != true {
		t.Errorf("sampled = %v", m["sampled"])
	}
	sp, ok := m["spans"].([]any)
	if !ok || len(sp) != 1 {
		t.Fatalf("spans = %v", m["spans"])
	}
	span := sp[0].(map[string]any)
	if span["stage"] != "gzip" || span["us"] != float64(123) || span["bytes"] != float64(77) {
		t.Errorf("span = %v", span)
	}
}

func TestOutcomeRoundTrip(t *testing.T) {
	for o := OutcomeDelta; o < numOutcomes; o++ {
		back, ok := ParseOutcome(o.String())
		if !ok || back != o {
			t.Errorf("ParseOutcome(%q) = %v, %v", o.String(), back, ok)
		}
	}
	if _, ok := ParseOutcome("nope"); ok {
		t.Error("ParseOutcome accepted garbage")
	}
	if _, ok := ParseOutcome("unknown"); ok {
		t.Error("ParseOutcome accepted the unknown sentinel")
	}
}

// TestRecordAllocFree enforces the acceptance criterion: summary-only
// recording on the warm path adds zero allocations per request.
func TestRecordAllocFree(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	r := New("n0", 1024, time.Hour) // nothing crosses the threshold
	rec := Record{
		Trace:    ctxN(7),
		Class:    "www.shop.com/laptops",
		Outcome:  OutcomeDelta,
		Start:    12345,
		Total:    time.Millisecond,
		DocBytes: 4096, WireBytes: 128,
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(rec)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f per op, want 0", allocs)
	}
}

// TestConcurrentRecordSnapshot is the -race stress test: writers wrapping
// the ring many times over while readers snapshot and serialize it.
func TestConcurrentRecordSnapshot(t *testing.T) {
	r := New("n0", 64, 5*time.Millisecond)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			spans := [obs.NumStages]obs.Span{}
			spans[obs.StageEncode] = obs.Span{Dur: time.Millisecond, Bytes: int64(w)}
			for i := 0; i < 2000; i++ {
				r.Record(Record{
					Trace:   ctxN(uint64(w*10000 + i)),
					Outcome: OutcomeDelta,
					Total:   time.Duration(i%20) * time.Millisecond,
					Spans:   spans,
				})
			}
		}(w)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				recs := r.Snapshot(Filter{})
				for _, rec := range recs {
					// Invariant: unsampled records must have been stripped
					// of span detail; a torn read would surface here.
					if !rec.Sampled && rec.Spans[obs.StageEncode].Dur != 0 {
						t.Error("unsampled record kept spans (torn read?)")
						return
					}
				}
				var sb strings.Builder
				if _, err := r.WriteNDJSON(&sb, Filter{SampledOnly: true}); err != nil {
					t.Errorf("WriteNDJSON: %v", err)
					return
				}
			}
		}()
	}
	// Let writers finish, then stop readers.
	done := make(chan struct{})
	go func() {
		defer close(done)
		wg.Wait()
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	<-done

	if got := len(r.Snapshot(Filter{})); got != 64 {
		t.Fatalf("ring holds %d records after stress, want 64", got)
	}
}

func TestRegisterMetrics(t *testing.T) {
	reg := metrics.NewRegistry()
	r := New("n0", 16, 0)
	r.RegisterMetrics(reg)
	r.Record(Record{Trace: ctxN(1), Outcome: OutcomeDelta})
	var sb strings.Builder
	if err := reg.Expose(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"cbde_flightrec_records_total 1",
		"cbde_flightrec_sampled_total 1",
		"cbde_flightrec_ring_size 16",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
