package main

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cbde/internal/origin"
	"cbde/internal/trace"
)

// schedReq is one entry of the seeded request schedule.
type schedReq struct {
	user int32
	path string
}

// scheduleLen is how many requests one phase's schedule holds; a phase that
// outlasts it wraps around.
const scheduleLen = 1 << 16

// Schedule streams, one per phase of a run, so no phase replays another's
// request sequence.
const (
	streamWarmup = iota
	streamClosed
	streamOpen
	streamTraced
)

// schedule is one phase's request sequence, from trace.Generate, split by
// the worker each request's user is pinned to.
type schedule struct {
	reqs     []schedReq
	byWorker [][]int32 // ascending indices into reqs
}

// genSchedule derives a phase's schedule from the run seed. With AltEvery
// set, traffic alternates between the two halves of the departments.
func genSchedule(wl *workload, seed uint64, stream, workers int) (*schedule, error) {
	tcfg := trace.Config{
		Requests:  scheduleLen,
		Users:     wl.Users,
		ZipfS:     0.9,
		TickEvery: wl.TickEvery,
		Seed:      seed<<8 | uint64(stream),
	}
	var halves [][]trace.Request
	if wl.AltEvery > 0 {
		// trace.Generate draws over a site's departments, so each half gets
		// a view site holding only its departments.
		depts := wl.Site.Depts
		for h, ds := range [][]origin.Dept{depts[:len(depts)/2], depts[len(depts)/2:]} {
			view := wl.Site
			view.Depts = ds
			cfg := tcfg
			cfg.Seed = tcfg.Seed<<1 | uint64(h)
			halves = append(halves, trace.Generate(origin.NewSite(view), cfg))
		}
	} else {
		halves = [][]trace.Request{trace.Generate(origin.NewSite(wl.Site), tcfg)}
	}

	s := &schedule{reqs: make([]schedReq, scheduleLen), byWorker: make([][]int32, workers)}
	for i := range s.reqs {
		src := halves[0]
		if wl.AltEvery > 0 {
			src = halves[(i/wl.AltEvery)%2]
		}
		r := src[i]
		u, err := strconv.Atoi(strings.TrimPrefix(r.User, "user"))
		if err != nil {
			return nil, fmt.Errorf("schedule: unexpected user name %q", r.User)
		}
		s.reqs[i] = schedReq{user: int32(u), path: strings.TrimPrefix(r.URL, siteHost)}
		w := u % workers
		s.byWorker[w] = append(s.byWorker[w], int32(i))
	}
	return s, nil
}

// phaseResult is what one measured phase observed.
type phaseResult struct {
	elapsed   time.Duration
	attempted int
	failed    int
	// refreshErrs counts Gets that delivered a correct document but could
	// not refresh the class's base-file afterwards; they are not failures.
	refreshErrs int
	firstErr    string
	// refused counts open-phase requests never sent because they were still
	// waiting at twice the phase length; they are failures too.
	refused int

	winCount []int // verified completions per full 1 s window

	// Open phase only.
	latency  []sample // latency from the due time, by due time
	backlog  []sample // start − due, by due time
	schedLag []int64  // how late a sleeping worker woke, ns
}

// sample is one timed observation placed on the phase's timeline.
type sample struct {
	at int64 // ns since phase start
	v  int64 // ns
}

// workerResult is a worker's private tally, merged when the phase ends.
type workerResult struct {
	attempted, failed, refreshErrs int
	firstErr                       string
	done                           []int64 // completion times of verified requests, ns since phase start
	latency, backlog               []sample
	schedLag                       []int64
}

// do sends one request through the user's client and verifies the
// reconstructed document against the digests the origin recorded.
func (s *stack) do(w int, r schedReq, res *workerResult) bool {
	tr := s.workers[w]
	s.tick()
	since := s.digests.serves.Load()
	tracing := s.rec.on.Load()
	var root span
	if tracing {
		root = span{id: s.rec.newID(), kind: spanGet, start: s.rec.now()}
		tr.root = root.id
	}
	doc, err := s.clients[r.user].Get(r.path)
	if tracing {
		root.end = s.rec.now()
		s.rec.add(root)
		tr.root = 0
	}
	res.attempted++
	switch {
	case doc == nil:
		res.fail(fmt.Sprintf("%s as %s: %v", r.path, userName(int(r.user)), err))
		return false
	case !s.digests.served(digestKey(r.path, userName(int(r.user))), s.digests.digest(doc), since):
		res.fail(fmt.Sprintf("%s as %s: reconstructed document matches nothing the origin served", r.path, userName(int(r.user))))
		return false
	case err != nil:
		res.refreshErrs++
	}
	return true
}

func (res *workerResult) fail(msg string) {
	res.failed++
	if res.firstErr == "" {
		res.firstErr = msg
	}
}

// runClosed runs a closed loop for d: every worker sends its next request
// as soon as the previous one completes.
func (s *stack) runClosed(sch *schedule, d time.Duration) phaseResult {
	start := time.Now()
	results := make([]workerResult, len(s.workers))
	var wg sync.WaitGroup
	for w := range s.workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &results[w]
			list := sch.byWorker[w]
			for i := 0; len(list) > 0; i++ {
				if time.Since(start) >= d {
					return
				}
				if s.do(w, sch.reqs[list[i%len(list)]], res) {
					res.done = append(res.done, int64(time.Since(start)))
				}
			}
		}(w)
	}
	wg.Wait()
	return mergeResults(results, time.Since(start), d)
}

// runOpen runs an open loop for d: request g of the schedule is due at
// start + g/rate whatever the tier is doing, each worker sends its users'
// requests in due order with one in flight, and latency runs from the due
// time, so a stall is charged to every request it delays.
func (s *stack) runOpen(sch *schedule, d time.Duration, rate float64) phaseResult {
	interval := time.Duration(float64(time.Second) / rate)
	total := int(d / interval)
	giveUp := 2 * d
	start := time.Now()
	results := make([]workerResult, len(s.workers))
	var wg sync.WaitGroup
	for w := range s.workers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res := &results[w]
			list := sch.byWorker[w]
			for lap := 0; len(list) > 0; lap++ {
				for _, i := range list {
					g := lap*len(sch.reqs) + int(i)
					if g >= total || time.Since(start) > giveUp {
						return
					}
					due := time.Duration(g) * interval
					if wait := due - time.Since(start); wait > 0 {
						time.Sleep(wait)
						res.schedLag = append(res.schedLag, int64(time.Since(start)-due))
					}
					begun := time.Since(start)
					ok := s.do(w, sch.reqs[i], res)
					end := time.Since(start)
					res.backlog = append(res.backlog, sample{at: int64(due), v: int64(begun - due)})
					if ok {
						res.done = append(res.done, int64(end))
						res.latency = append(res.latency, sample{at: int64(due), v: int64(end - due)})
					}
				}
			}
		}(w)
	}
	wg.Wait()
	p := mergeResults(results, time.Since(start), d)
	p.refused = total - p.attempted
	return p
}

func mergeResults(results []workerResult, elapsed, d time.Duration) phaseResult {
	p := phaseResult{elapsed: elapsed, winCount: make([]int, int(d/time.Second))}
	for i := range results {
		r := &results[i]
		p.attempted += r.attempted
		p.failed += r.failed
		p.refreshErrs += r.refreshErrs
		if p.firstErr == "" {
			p.firstErr = r.firstErr
		}
		for _, t := range r.done {
			if w := int(t / int64(time.Second)); w < len(p.winCount) {
				p.winCount[w]++
			}
		}
		p.latency = append(p.latency, r.latency...)
		p.backlog = append(p.backlog, r.backlog...)
		p.schedLag = append(p.schedLag, r.schedLag...)
	}
	byTime := func(s []sample) {
		sort.Slice(s, func(i, j int) bool { return s[i].at < s[j].at })
	}
	byTime(p.latency)
	byTime(p.backlog)
	return p
}

// throughput is verified requests per second: the median over the phase's
// full 1 s windows, so a stall in one window does not move it.
func (p phaseResult) throughput() float64 {
	if len(p.winCount) == 0 {
		// A phase shorter than one window (smoke runs): the plain mean.
		return ratio(float64(p.verified()), p.elapsed.Seconds())
	}
	w := make([]float64, len(p.winCount))
	for i, c := range p.winCount {
		w[i] = float64(c)
	}
	return quantile(w, 0.5)
}

// verified is how many requests completed with a verified document.
func (p phaseResult) verified() int { return p.attempted - p.failed }

// values strips the timeline off a sample series.
func values(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = float64(x.v)
	}
	return out
}

// overloadReason says why an open phase's latency numbers may not be
// reported, or "" when the driver kept its schedule: the due-time backlog
// must not still be growing when the phase ends, and workers must wake
// within 5 ms of when they asked to (p99).
func overloadReason(backlog []sample, schedLag []int64) string {
	if p99 := schedLagP99(schedLag); p99 > 5 {
		return fmt.Sprintf("driver.sched_lag_p99_ms = %.2f > 5", p99)
	}
	if n := len(backlog); n >= 10 {
		fifth := n / 5
		mid := quantile(values(backlog[2*fifth:3*fifth]), 0.5) / 1e6
		last := quantile(values(backlog[n-fifth:]), 0.5) / 1e6
		if last-mid > 5 {
			return fmt.Sprintf("due-time backlog still growing: median %.2f ms mid-phase, %.2f ms at the end", mid, last)
		}
	}
	return ""
}

// schedLagP99 is how late, in ms at the 99th percentile, workers that slept
// until a request was due woke up: the generator's own lateness.
func schedLagP99(schedLag []int64) float64 {
	lag := make([]float64, len(schedLag))
	for i, v := range schedLag {
		lag[i] = float64(v)
	}
	return quantile(lag, 0.99) / 1e6
}
