// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark reports the paper's headline quantity via b.ReportMetric,
// so `go test -bench=. -benchmem` doubles as the reproduction harness:
//
//	BenchmarkTableII/*        -> savings%   (paper: 94.8 / 95.0 / 97.1)
//	BenchmarkTableIII         -> avg delta bytes per algorithm
//	BenchmarkTableIV/*        -> base & delta sizes, plain vs anonymized
//	BenchmarkLatency/*        -> L1/L2      (paper: ~5 high-bw, ~10 modem)
//	BenchmarkCapacity/*       -> req/s      (paper: 175-180 plain, ~130 delta)
//	BenchmarkDeltaGeneration  -> ms/delta   (paper: 6-8ms, 50-60KB base)
//	BenchmarkGrouping         -> docs per class (paper: 10-100x)
//	BenchmarkStorageByMode/*  -> server storage KB (the scalability claim)
//	BenchmarkPError/Privacy   -> closed-form bounds (Sections IV & V)
package cbde_test

import (
	"fmt"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"cbde/internal/anonymize"
	"cbde/internal/basefile"
	"cbde/internal/core"
	"cbde/internal/deltaclient"
	"cbde/internal/deltaserver"
	"cbde/internal/experiments"
	"cbde/internal/gzipx"
	"cbde/internal/netsim"
	"cbde/internal/origin"
	"cbde/internal/trace"
	"cbde/internal/vdelta"
)

// benchScale keeps replay-based benchmarks tractable; EXPERIMENTS.md
// records full-scale runs via cmd/experiments.
const benchScale = 0.05

// BenchmarkTableII replays each calibrated site (Table II) and reports the
// bandwidth savings percentage.
func BenchmarkTableII(b *testing.B) {
	for i, sw := range trace.PaperSites(benchScale) {
		b.Run(fmt.Sprintf("site%d", i+1), func(b *testing.B) {
			var last experiments.ReplayResult
			for n := 0; n < b.N; n++ {
				res, err := experiments.Replay(sw, core.ModeClassBased)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Savings()*100, "savings%")
			b.ReportMetric(float64(last.DirectBytes)/1024, "directKB")
			b.ReportMetric(float64(last.DeltaBytes+last.FullBytes)/1024, "deltaKB")
		})
	}
}

// BenchmarkTableIII evaluates the three base-file selection algorithms
// (Table III) and reports each algorithm's average delta size.
func BenchmarkTableIII(b *testing.B) {
	docs := experiments.TableIIIDocs(100)
	var rows []experiments.TableIIIRow
	for n := 0; n < b.N; n++ {
		rows = experiments.TableIII(docs, 3, 42)
	}
	var fr, rnd, opt float64
	for _, r := range rows {
		fr += r.FirstResponse
		rnd += r.Randomized
		opt += r.OnlineOptimal
	}
	k := float64(len(rows))
	b.ReportMetric(fr/k, "firstResponseB")
	b.ReportMetric(rnd/k, "randomizedB")
	b.ReportMetric(opt/k, "onlineOptimalB")
}

// BenchmarkTableIV measures anonymization cost (Table IV) per (M, N) level.
func BenchmarkTableIV(b *testing.B) {
	for _, lvl := range experiments.TableIVLevels {
		b.Run(fmt.Sprintf("M%d_N%d", lvl.M, lvl.N), func(b *testing.B) {
			var rows []experiments.TableIVRow
			var err error
			for n := 0; n < b.N; n++ {
				rows, err = experiments.TableIV([]struct{ M, N int }{lvl})
				if err != nil {
					b.Fatal(err)
				}
			}
			r := rows[0]
			b.ReportMetric(float64(r.BasePlain), "basePlainB")
			b.ReportMetric(float64(r.BaseAnon), "baseAnonB")
			b.ReportMetric(r.DeltaPlain, "deltaPlainB")
			b.ReportMetric(r.DeltaAnon, "deltaAnonB")
		})
	}
}

// BenchmarkLatency evaluates the Section VI-A latency model and reports the
// L1/L2 ratio for a 30 KB document vs a 1 KB delta.
func BenchmarkLatency(b *testing.B) {
	paths := []struct {
		name string
		path netsim.Path
	}{
		{"high-bw", netsim.HighBandwidth()},
		{"modem-56k", netsim.Modem56k()},
	}
	for _, p := range paths {
		b.Run(p.name, func(b *testing.B) {
			var ratio float64
			for n := 0; n < b.N; n++ {
				ratio = p.path.LatencyRatio(30*1024, 1024)
			}
			b.ReportMetric(ratio, "L1/L2")
		})
	}
}

// BenchmarkCapacity reproduces the Section VI-C throughput comparison: the
// plain web-server vs the web-server fronted by the delta-server, both with
// the calibrated per-request origin cost.
func BenchmarkCapacity(b *testing.B) {
	res, err := experiments.Capacity(200)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plain", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
			// measurement happened above; per-iteration cost is reported
			// from the shared run to keep both sides comparable
		}
		b.ReportMetric(res.PlainRPS(), "req/s")
	})
	b.Run("delta-server", func(b *testing.B) {
		for n := 0; n < b.N; n++ {
		}
		b.ReportMetric(res.DeltaRPS(), "req/s")
		b.ReportMetric(res.CapacityRatio(), "ratio")
	})
}

// BenchmarkDeltaGeneration times one delta generation on a 50-60 KB base
// (paper: 6-8 ms on a Pentium III).
func BenchmarkDeltaGeneration(b *testing.B) {
	site := origin.NewSite(origin.Config{
		Host:          "www.cap.com",
		Depts:         []origin.Dept{{Name: "catalog", Items: 2}},
		TemplateBytes: 48000,
		ItemBytes:     5000,
		ChurnBytes:    2000,
		Seed:          606,
	})
	base, err := site.Render("catalog", 0, "", 0)
	if err != nil {
		b.Fatal(err)
	}
	target, err := site.Render("catalog", 0, "", 3)
	if err != nil {
		b.Fatal(err)
	}
	coder := vdelta.NewCoder()
	b.SetBytes(int64(len(target)))
	b.ResetTimer()
	var delta []byte
	for n := 0; n < b.N; n++ {
		delta, err = coder.Encode(base, target)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(delta)), "deltaB")
	b.ReportMetric(float64(len(gzipx.Compress(delta))), "gzDeltaB")
}

// BenchmarkDeltaReconstruction times the client-side combine (the paper
// calls the client-side latency "insignificant").
func BenchmarkDeltaReconstruction(b *testing.B) {
	site := origin.NewSite(origin.Config{
		Host:          "www.cap.com",
		Depts:         []origin.Dept{{Name: "catalog", Items: 2}},
		TemplateBytes: 48000,
		Seed:          606,
	})
	base, _ := site.Render("catalog", 0, "", 0)
	target, _ := site.Render("catalog", 0, "", 3)
	delta, err := vdelta.Encode(base, target)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(target)))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := vdelta.Decode(base, delta); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGrouping replays site1 and reports the Section VI-B class
// compression (documents per class) and probe effort.
func BenchmarkGrouping(b *testing.B) {
	sw := trace.PaperSites(benchScale)[0]
	var last experiments.ReplayResult
	for n := 0; n < b.N; n++ {
		res, err := experiments.Replay(sw, core.ModeClassBased)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(float64(last.DistinctDocs)/float64(last.Classes), "docs/class")
	b.ReportMetric(last.ProbesPerURL, "probes/url")
}

// BenchmarkStorageByMode replays site1 under each mode and reports the
// server-side storage footprint — the scalability claim of Section II.
func BenchmarkStorageByMode(b *testing.B) {
	sw := trace.PaperSites(benchScale)[0]
	for _, mode := range []core.Mode{core.ModeClassBased, core.ModeClassless, core.ModeClasslessPerUser} {
		b.Run(mode.String(), func(b *testing.B) {
			var last experiments.ReplayResult
			for n := 0; n < b.N; n++ {
				res, err := experiments.Replay(sw, mode)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.StorageBytes)/1024, "storageKB")
			b.ReportMetric(float64(last.Classes), "base-files")
			b.ReportMetric(last.Savings()*100, "savings%")
		})
	}
}

// BenchmarkEvictionPolicies compares the footnote-3 eviction variants: the
// average delta size each achieves over the Table III pool.
func BenchmarkEvictionPolicies(b *testing.B) {
	docs := experiments.TableIIIDocs(100)
	coder := vdelta.NewCoder()
	for _, policy := range []basefile.EvictionPolicy{
		basefile.EvictWorst, basefile.EvictPeriodicRandom, basefile.EvictTwoSet,
	} {
		b.Run(policy.String(), func(b *testing.B) {
			var avg float64
			for n := 0; n < b.N; n++ {
				s := basefile.NewSelector(basefile.Config{
					SampleProb: 0.2, MaxSamples: 8, Eviction: policy, Seed: 7,
				})
				now := time.Unix(0, 0)
				total, count := 0, 0
				for _, doc := range docs {
					base, version := s.Base()
					if version > 0 {
						if d, err := coder.Encode(base, doc); err == nil {
							total += len(d)
							count++
						}
					}
					s.Observe(doc, now)
					now = now.Add(time.Second)
				}
				avg = float64(total) / float64(count)
			}
			b.ReportMetric(avg, "avgDeltaB")
		})
	}
}

// selectClassDocs renders n documents of one class of the request-path
// benchmark's personalized catalog site (about 36 KB each: a shared 30 KB
// template, 4 KB per item, 1.5 KB of churn, a per-user block).
func selectClassDocs(b *testing.B, n int) [][]byte {
	site := origin.NewSite(origin.Config{
		Host:          "www.select.com",
		Depts:         []origin.Dept{{Name: "dept0", Items: 8}},
		TemplateBytes: 30000,
		ItemBytes:     4000,
		ChurnBytes:    1500,
		Personalized:  true,
		Seed:          7,
	})
	docs := make([][]byte, n)
	for i := range docs {
		doc, err := site.Render("dept0", i%8, fmt.Sprintf("user%d", i), i/8)
		if err != nil {
			b.Fatal(err)
		}
		docs[i] = doc
	}
	return docs
}

// BenchmarkEstimate times one light-Vdelta estimate between two same-class
// documents: plain (index the base, then scan) and against a prebuilt index.
func BenchmarkEstimate(b *testing.B) {
	docs := selectClassDocs(b, 2)
	base, target := docs[0], docs[1]
	est := vdelta.NewEstimator()
	var size int
	b.Run("plain", func(b *testing.B) {
		b.SetBytes(int64(len(target)))
		for n := 0; n < b.N; n++ {
			size = est.Estimate(base, target)
		}
		b.ReportMetric(float64(size), "estB")
	})
	b.Run("indexed", func(b *testing.B) {
		ix := est.Index(base)
		defer est.Release(ix)
		b.SetBytes(int64(len(target)))
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			size = est.EstimateIndexed(ix, base, target)
		}
		b.ReportMetric(float64(size), "estB")
	})
}

// BenchmarkSelectorAdmit times one sample admission into a full store
// (K = 8: 2K estimates, one eviction) for each eviction policy, in
// synchronous mode so the admission is the whole of Observe.
func BenchmarkSelectorAdmit(b *testing.B) {
	docs := selectClassDocs(b, 64)
	for _, policy := range []basefile.EvictionPolicy{
		basefile.EvictWorst, basefile.EvictPeriodicRandom, basefile.EvictTwoSet,
	} {
		b.Run(policy.String(), func(b *testing.B) {
			s := basefile.NewSelector(basefile.Config{
				SampleProb: 1, MaxSamples: 8, Eviction: policy, Seed: 7,
				RebaseTimeout: time.Hour,
			})
			now := time.Unix(0, 0)
			for _, doc := range docs[:16] {
				s.Observe(doc, now)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				s.Observe(docs[n%len(docs)], now)
			}
		})
	}
}

// BenchmarkPError evaluates the Section IV selection-error bound at the
// paper's operating point.
func BenchmarkPError(b *testing.B) {
	var bound float64
	for n := 0; n < b.N; n++ {
		bound = basefile.PErrorBound(1000, 10)
	}
	b.ReportMetric(bound*1e11, "bound-1e-11") // paper: <= 8
}

// BenchmarkPrivacy evaluates the Section V privacy bound and exact value at
// the paper's operating point.
func BenchmarkPrivacy(b *testing.B) {
	var bound, exact float64
	for n := 0; n < b.N; n++ {
		bound = anonymize.PrivacyBoundIID(10, 5, 0.01)
		exact = anonymize.PrivacyExact(10, 5, 0.01)
	}
	b.ReportMetric(bound*1e7, "bound-1e-7") // paper: ~4.7
	b.ReportMetric(exact*1e8, "exact-1e-8") // paper: ~2.4
}

// BenchmarkAnonymization times one full anonymization pass (N comparisons
// of a ~40 KB base-file).
func BenchmarkAnonymization(b *testing.B) {
	site := origin.NewSite(origin.Config{
		Host:          "www.anon.com",
		Depts:         []origin.Dept{{Name: "portal", Items: 4}},
		TemplateBytes: 36000,
		Personalized:  true,
		Seed:          99,
	})
	base, _ := site.Render("portal", 0, "owner", 0)
	var docs [][]byte
	for i := 0; i < 5; i++ {
		d, _ := site.Render("portal", i%4, fmt.Sprintf("u%d", i), i)
		docs = append(docs, d)
	}
	b.SetBytes(int64(len(base)))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := anonymize.Anonymize(base, docs, anonymize.Config{M: 2, N: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEndHTTP measures one full client request through the real
// HTTP chain (delta path, warm base) — the serving-latency complement to
// the throughput numbers.
func BenchmarkEndToEndHTTP(b *testing.B) {
	site := origin.NewSite(origin.Config{
		Host:          "www.e2e.com",
		Depts:         []origin.Dept{{Name: "catalog", Items: 4}},
		TemplateBytes: 30000,
		Seed:          5,
	})
	originSrv := httptest.NewServer(site.Handler())
	defer originSrv.Close()
	eng, err := core.NewEngine(core.Config{
		Anon: anonymize.Config{M: 1, N: 2},
		Now:  monotonic(),
	})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := deltaserver.New(originSrv.URL, eng, deltaserver.WithPublicHost("www.e2e.com"))
	if err != nil {
		b.Fatal(err)
	}
	front := httptest.NewServer(ds)
	defer front.Close()

	cl := deltaclient.New(front.URL, deltaclient.WithUser("bench"))
	// Warm through distinct users.
	for i := 0; i < 4; i++ {
		warmCl := deltaclient.New(front.URL, deltaclient.WithUser(fmt.Sprintf("w%d", i)))
		if _, err := warmCl.Get("/catalog/0"); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := cl.Get("/catalog/0"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if _, err := cl.Get("/catalog/0"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineProcessParallel drives Engine.Process from concurrent
// goroutines (b.RunParallel) against warmed classes, reporting req/s. The
// cross-class variant spreads goroutines over several classes (the realistic
// multicore serving mix); the same-class variant hammers one class and so
// measures residual per-class serialization. Together they put a multicore
// data point next to the paper's single-core capacity table (Section VI-C).
// The delta memo cache is off here so the numbers keep pricing the encode
// pipeline itself; BenchmarkEngineProcessMemoized prices the cached path.
func BenchmarkEngineProcessParallel(b *testing.B) {
	variants := []struct {
		name    string
		classes int
	}{
		{"same-class", 1},
		{"cross-class", 8},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			benchEngineParallel(b, v.classes, false)
		})
	}
}

// BenchmarkEngineProcessMemoized is BenchmarkEngineProcessParallel with the
// delta memo cache on (the production default) and pre-filled: every
// measured request is a warm hit served by aliasing the cached compressed
// delta, so the numbers price the lookup-and-share path that repeated
// (class, version, document) traffic rides. Compare same-class here against
// same-class in the Parallel benchmark for the memoization speedup.
func BenchmarkEngineProcessMemoized(b *testing.B) {
	variants := []struct {
		name    string
		classes int
	}{
		{"same-class", 1},
		{"cross-class", 8},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			benchEngineParallel(b, v.classes, true)
		})
	}
}

// benchEngineParallel warms nClasses classes to the delta-serving steady
// state and then processes delta requests from all goroutines. With
// memoized set, the delta cache stays on and is pre-filled so measurement
// starts at a 100% hit rate; otherwise the cache is disabled and every
// request encodes.
func benchEngineParallel(b *testing.B, nClasses int, memoized bool) {
	eng, err := core.NewEngine(core.Config{
		Anon: anonymize.Config{M: 1, N: 2},
		// Disable candidate sampling so the steady state is a pure
		// route+encode path with no group-rebases mid-measurement.
		Selector:      basefile.Config{SampleProb: -1},
		DeltaCacheOff: !memoized,
		Now:           monotonic(),
	})
	if err != nil {
		b.Fatal(err)
	}

	type class struct {
		id      string
		version int
		docs    [][]byte
	}
	classes := make([]*class, nClasses)
	for c := 0; c < nClasses; c++ {
		site := origin.NewSite(origin.Config{
			Host:          fmt.Sprintf("www.cap%d.com", c),
			Depts:         []origin.Dept{{Name: "catalog", Items: 2}},
			TemplateBytes: 30000,
			ItemBytes:     3000,
			ChurnBytes:    1500,
			Seed:          uint64(7000 + c),
		})
		url := fmt.Sprintf("www.cap%d.com/catalog/0", c)
		// Warm through distinct users until the class distributes a base.
		var resp core.Response
		for u := 0; u < 4; u++ {
			doc, err := site.Render("catalog", 0, "", u)
			if err != nil {
				b.Fatal(err)
			}
			resp, err = eng.Process(core.Request{URL: url, UserID: fmt.Sprintf("warm%d", u), Doc: doc})
			if err != nil {
				b.Fatal(err)
			}
		}
		if resp.LatestVersion == 0 {
			b.Fatalf("class %d: no distributable base after warmup", c)
		}
		cl := &class{id: resp.ClassID, version: resp.LatestVersion}
		// Pre-render a cycle of near-base documents so measurement excludes
		// document generation.
		for t := 0; t < 16; t++ {
			doc, err := site.Render("catalog", 0, "", 10+t)
			if err != nil {
				b.Fatal(err)
			}
			cl.docs = append(cl.docs, doc)
		}
		classes[c] = cl
	}

	urls := make([]string, nClasses)
	for c := range urls {
		urls[c] = fmt.Sprintf("www.cap%d.com/catalog/0", c)
	}

	if memoized {
		// Lead every (class, doc) key once so the measured loop is pure
		// warm hits.
		for c, cl := range classes {
			for _, doc := range cl.docs {
				resp, err := eng.Process(core.Request{
					URL: urls[c], UserID: "bench", Doc: doc,
					HaveClassID: cl.id, HaveVersion: cl.version,
				})
				if err != nil {
					b.Fatal(err)
				}
				if resp.Kind != core.KindDelta {
					b.Fatalf("prefill expected delta response, got %v", resp.Kind)
				}
			}
		}
	}

	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			c := i % nClasses
			cl := classes[c]
			req := core.Request{
				URL:         urls[c],
				UserID:      "bench",
				Doc:         cl.docs[i%len(cl.docs)],
				HaveClassID: cl.id,
				HaveVersion: cl.version,
			}
			resp, err := eng.Process(req)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Kind != core.KindDelta {
				b.Fatalf("expected delta response, got %v", resp.Kind)
			}
			i++
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	if memoized {
		dc := eng.DeltaCacheStats()
		b.ReportMetric(float64(dc.Hits)/float64(dc.Hits+dc.Misses+dc.Coalesced), "hit-frac")
	}
}

// BenchmarkEngineProcessBudgeted measures the memory-governed store on the
// parallel serving path. headroom sets a budget the working set fits inside,
// so it prices the per-request budget check alone (must track the
// unbudgeted BenchmarkEngineProcessParallel numbers); churn sets a budget
// that holds the two hot classes (a fully warm class costs ~0.5 MB — base
// plus the stride-1 chain index) but not the six-class cold tail, so sweeps
// run continuously: CLOCK must keep the hot set resident while the tail
// evicts and re-warms, with the full (non-delta) response fraction reported
// alongside req/s.
func BenchmarkEngineProcessBudgeted(b *testing.B) {
	b.Run("headroom", func(b *testing.B) { benchEngineBudgeted(b, 64<<20) })
	b.Run("churn", func(b *testing.B) { benchEngineBudgeted(b, 1536<<10) })
}

func benchEngineBudgeted(b *testing.B, budget int64) {
	eng, err := core.NewEngine(core.Config{
		Anon:      anonymize.Config{M: 1, N: 2},
		Selector:  basefile.Config{SampleProb: -1},
		MemBudget: budget,
		Now:       monotonic(),
	})
	if err != nil {
		b.Fatal(err)
	}

	const nClasses = 8
	type class struct {
		id      string
		version int
		docs    [][]byte
	}
	classes := make([]*class, nClasses)
	urls := make([]string, nClasses)
	for c := 0; c < nClasses; c++ {
		site := origin.NewSite(origin.Config{
			Host:          fmt.Sprintf("www.gov%d.com", c),
			Depts:         []origin.Dept{{Name: "catalog", Items: 2}},
			TemplateBytes: 30000,
			ItemBytes:     3000,
			ChurnBytes:    1500,
			Seed:          uint64(8000 + c),
		})
		urls[c] = fmt.Sprintf("www.gov%d.com/catalog/0", c)
		var resp core.Response
		for u := 0; u < 4; u++ {
			doc, err := site.Render("catalog", 0, "", u)
			if err != nil {
				b.Fatal(err)
			}
			resp, err = eng.Process(core.Request{URL: urls[c], UserID: fmt.Sprintf("warm%d", u), Doc: doc})
			if err != nil {
				b.Fatal(err)
			}
		}
		cl := &class{id: resp.ClassID, version: resp.LatestVersion}
		for t := 0; t < 16; t++ {
			doc, err := site.Render("catalog", 0, "", 10+t)
			if err != nil {
				b.Fatal(err)
			}
			cl.docs = append(cl.docs, doc)
		}
		classes[c] = cl
	}

	// Rotate a few user identities so evicted classes can finish
	// anonymization again and re-warm mid-run.
	users := []string{"bench-0", "bench-1", "bench-2", "bench-3"}
	var fulls atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Per-goroutine held versions, refreshed like a real client when the
		// server announces a newer base — under churn, evicted classes
		// degrade to full responses until the goroutine re-fetches.
		held := make([]int, nClasses)
		for c, cl := range classes {
			held[c] = cl.version
		}
		i := 0
		for pb.Next() {
			// 75% of traffic on two hot classes, the rest rotating the
			// cold tail — the skew CLOCK's ref bits are built for.
			c := i % 2
			if i%4 == 3 {
				c = 2 + (i/4)%(nClasses-2)
			}
			cl := classes[c]
			req := core.Request{
				URL:    urls[c],
				UserID: users[(i/nClasses)%len(users)],
				Doc:    cl.docs[i%len(cl.docs)],
			}
			if held[c] != 0 {
				req.HaveClassID = cl.id
				req.HaveVersion = held[c]
			}
			resp, err := eng.Process(req)
			if err != nil {
				b.Fatal(err)
			}
			if resp.Kind != core.KindDelta {
				fulls.Add(1)
			}
			if resp.LatestVersion != held[c] {
				held[c] = resp.LatestVersion
			}
			i++
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "req/s")
	b.ReportMetric(float64(fulls.Load())/float64(b.N), "full-frac")
	if st := eng.StoreStats(); st.Resident.Total > budget {
		b.Fatalf("resident bytes %d exceed budget %d after run", st.Resident.Total, budget)
	}
}

func monotonic() func() time.Time {
	base := time.Unix(1_000_000, 0)
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

// BenchmarkProcessTracing measures the observability tentpole's overhead:
// the warm delta-serving path with span tracing off (the default, which
// must cost nothing) versus on (spans + per-stage histograms). CI archives
// the pair in BENCH_obs.json so tracer-overhead regressions are diffable.
func BenchmarkProcessTracing(b *testing.B) {
	for _, enabled := range []bool{false, true} {
		name := "off"
		if enabled {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			eng, err := core.NewEngine(core.Config{
				Anon:     anonymize.Config{M: 1, N: 2},
				Selector: basefile.Config{SampleProb: -1},
				Now:      monotonic(),
			})
			if err != nil {
				b.Fatal(err)
			}
			site := origin.NewSite(origin.Config{
				Host:          "www.trace.com",
				Depts:         []origin.Dept{{Name: "catalog", Items: 2}},
				TemplateBytes: 30000,
				ItemBytes:     3000,
				ChurnBytes:    1500,
				Seed:          7777,
			})
			const url = "www.trace.com/catalog/0"
			var resp core.Response
			for u := 0; u < 4; u++ {
				doc, err := site.Render("catalog", 0, "", u)
				if err != nil {
					b.Fatal(err)
				}
				resp, err = eng.Process(core.Request{URL: url, UserID: fmt.Sprintf("warm%d", u), Doc: doc})
				if err != nil {
					b.Fatal(err)
				}
			}
			if resp.LatestVersion == 0 {
				b.Fatal("no distributable base after warmup")
			}
			doc, err := site.Render("catalog", 0, "", 10)
			if err != nil {
				b.Fatal(err)
			}
			req := core.Request{
				URL: url, UserID: "bench", Doc: doc,
				HaveClassID: resp.ClassID, HaveVersion: resp.LatestVersion,
			}
			eng.SetTracing(enabled)

			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				resp, err := eng.Process(req)
				if err != nil {
					b.Fatal(err)
				}
				if resp.Kind != core.KindDelta {
					b.Fatalf("expected delta response, got %v", resp.Kind)
				}
			}
		})
	}
}

// BenchmarkUserLatency reproduces the abstract's headline claim — latency
// perceived by most users improves by ~10x on average over low-bandwidth
// links — and reports the modeled per-request speedup distribution.
func BenchmarkUserLatency(b *testing.B) {
	var reports []experiments.UserLatencyReport
	for n := 0; n < b.N; n++ {
		var err error
		reports, err = experiments.UserLatency(1, benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range reports {
		if r.Path == "modem-56k" {
			b.ReportMetric(r.MeanRatio, "meanSpeedup")
			b.ReportMetric(r.MedianRatio, "medianSpeedup")
			b.ReportMetric(r.FracAtLeast5x*100, ">=5x%")
		}
	}
}

// BenchmarkFormats compares the vdelta and RFC 3284 VCDIFF wire formats on
// the same document pairs.
func BenchmarkFormats(b *testing.B) {
	var rows []experiments.FormatComparisonRow
	for n := 0; n < b.N; n++ {
		var err error
		rows, err = experiments.CompareFormats()
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Label == "next-tick" {
			b.ReportMetric(float64(r.VdeltaBytes), "vdeltaB")
			b.ReportMetric(float64(r.VCDIFFBytes), "vcdiffB")
		}
	}
}

// BenchmarkRebaseTimeout reports the rebase-frequency vs savings trade at
// two ends of the timeout sweep.
func BenchmarkRebaseTimeout(b *testing.B) {
	var rows []experiments.RebaseRow
	for n := 0; n < b.N; n++ {
		var err error
		rows, err = experiments.AblateRebaseTimeout(
			[]time.Duration{0, time.Hour}, benchScale)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rows[0].GroupRebases), "rebases@0s")
	b.ReportMetric(float64(rows[1].GroupRebases), "rebases@1h")
	b.ReportMetric(rows[1].Savings, "savings%@1h")
}

// BenchmarkStoreSpillFaultIn prices the disk tier's promotion path against
// the alternative it replaces. Both sub-benchmarks demote one warm class
// every iteration; "faultin" (spill dir set) restores the class from its
// compact blob and serves the returning client a delta, while "rewarm" (no
// tier) loses the class state with the eviction and ships the client a
// full response while the class re-warms from traffic. wireB/op is the
// payload shipped per returning client — the paper's bandwidth metric
// under eviction churn — and delta-frac is the delta-served fraction.
func BenchmarkStoreSpillFaultIn(b *testing.B) {
	for _, tier := range []bool{true, false} {
		name := "rewarm"
		if tier {
			name = "faultin"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.Config{
				DisableAnonymization: true,
				// No sampling and no timed rebases: versions move only
				// through the demotion cycle under test.
				Selector: basefile.Config{SampleProb: -1, RebaseTimeout: time.Hour},
				Now:      monotonic(),
			}
			if tier {
				cfg.SpillDir = b.TempDir()
				// Bounded so a long -benchtime run compacts dead segments
				// instead of filling the disk; the live record survives
				// compaction (the newest segment is never dropped).
				cfg.DiskBudget = 16 << 20
			}
			eng, err := core.NewEngine(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer eng.Close()
			site := origin.NewSite(origin.Config{
				Host:          "www.spill.com",
				Depts:         []origin.Dept{{Name: "catalog", Items: 2}},
				TemplateBytes: 30000,
				ItemBytes:     3000,
				ChurnBytes:    1500,
				Seed:          7100,
			})
			url := "www.spill.com/catalog/0"
			doc0, err := site.Render("catalog", 0, "", 0)
			if err != nil {
				b.Fatal(err)
			}
			resp, err := eng.Process(core.Request{URL: url, UserID: "warm", Doc: doc0})
			if err != nil {
				b.Fatal(err)
			}
			if resp.LatestVersion == 0 {
				b.Fatal("no distributable base after warmup")
			}
			classID, version := resp.ClassID, resp.LatestVersion
			var docs [][]byte
			for t := 0; t < 16; t++ {
				doc, err := site.Render("catalog", 0, "", 10+t)
				if err != nil {
					b.Fatal(err)
				}
				docs = append(docs, doc)
			}

			var wire int64
			deltas, fulls := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := eng.EvictClass(classID); !ok {
					b.Fatal("evict failed")
				}
				doc := docs[i%len(docs)]
				resp, err := eng.Process(core.Request{
					URL: url, UserID: "bench", Doc: doc,
					HaveClassID: classID, HaveVersion: version,
				})
				if err != nil {
					b.Fatal(err)
				}
				if resp.Kind == core.KindDelta {
					deltas++
					wire += int64(len(resp.Payload))
				} else {
					fulls++
					wire += int64(len(doc))
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(wire)/float64(b.N), "wireB/op")
			b.ReportMetric(float64(deltas)/float64(b.N), "delta-frac")
			if tier {
				if fulls > 0 {
					b.Fatalf("fault-in path served %d full responses", fulls)
				}
				if st := eng.SpillStats(); st.FaultIns == 0 {
					b.Fatalf("tier never faulted in: %+v", st)
				}
			} else if deltas > 0 {
				b.Fatalf("rewarm path unexpectedly served %d deltas", deltas)
			}
		})
	}
}

// graphBenchDoc renders one content generation for the version-graph
// benchmark: a shared template plus a per-generation churn section, the
// edit shape where retained edges stay small relative to the document.
func graphBenchDoc(gen int) []byte {
	doc := make([]byte, 0, 34000)
	x := uint64(4242)
	for len(doc) < 30000 {
		x = x*2862933555777941757 + 3037000493
		doc = append(doc, byte(x>>56))
	}
	x = uint64(gen) + 9000
	for i := 0; i < 3000; i++ {
		x = x*2862933555777941757 + 3037000493
		doc = append(doc, byte(x>>56))
	}
	return doc
}

// BenchmarkGraphStaleClient measures serving a client whose base-file lags
// the current version by 1, 2, and 4 rebases, with the version graph on
// (depth 6: direct old-version deltas or composed chains) versus off
// (depth 1: any lag falls off the delta path). wireB/op is the headline:
// bytes a stale client costs on the wire under each retention policy.
func BenchmarkGraphStaleClient(b *testing.B) {
	for _, g := range []struct {
		name  string
		depth int
	}{
		{"graph-on", 6},
		{"graph-off", 1},
	} {
		for _, lag := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/lag%d", g.name, lag), func(b *testing.B) {
				eng, err := core.NewEngine(core.Config{
					DisableAnonymization: true,
					GraphDepth:           g.depth,
					MaxDeltaRatio:        0.02,
					Selector:             basefile.Config{SampleProb: 1, MaxSamples: 4},
				})
				if err != nil {
					b.Fatal(err)
				}
				const gens = 8
				classID, have := "", 0
				for gen := 1; gen <= gens; gen++ {
					for r := 0; r < 2; r++ {
						resp, err := eng.Process(core.Request{
							URL: "www.graph.com/catalog/0", UserID: "warm",
							Doc:         graphBenchDoc(gen),
							HaveClassID: classID, HaveVersion: have,
						})
						if err != nil {
							b.Fatal(err)
						}
						classID = resp.ClassID
						if resp.LatestVersion > have {
							have = resp.LatestVersion
						}
					}
				}
				doc := graphBenchDoc(gens)
				stale := have - lag
				if stale < 1 {
					b.Fatalf("lag %d exceeds version history %d", lag, have)
				}
				// With the graph off the stale version is pruned and every
				// response is full — that cost is exactly the comparison.
				var wire int64
				deltas, chains := 0, 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					resp, err := eng.Process(core.Request{
						URL: "www.graph.com/catalog/0", UserID: "bench", Doc: doc,
						HaveClassID: classID, HaveVersion: stale,
					})
					if err != nil {
						b.Fatal(err)
					}
					if resp.Kind == core.KindDelta {
						deltas++
						if resp.Format == core.FormatVdeltaChain {
							chains++
						}
						wire += int64(len(resp.Payload))
					} else {
						wire += int64(len(doc))
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(wire)/float64(b.N), "wireB/op")
				b.ReportMetric(float64(deltas)/float64(b.N), "delta-frac")
				b.ReportMetric(float64(chains)/float64(b.N), "chain-frac")
				if g.depth > 1 && deltas == 0 {
					b.Fatal("graph-on served no deltas to a retained stale client")
				}
				if g.depth == 1 && deltas != 0 {
					b.Fatal("graph-off unexpectedly served deltas to a pruned version")
				}
			})
		}
	}
}
