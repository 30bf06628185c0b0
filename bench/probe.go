package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"cbde/internal/core"
	"cbde/internal/gzipx"
	"cbde/internal/origin"
	"cbde/internal/store"
	"cbde/internal/vdelta"
)

// Probe call counts at the full run length; shorter runs scale them down.
// The spill tier gzips a whole class record per call, so it gets fewer.
const (
	probeCalls      = 2000
	probeTierCalls  = 200
	probeFloorCalls = 20
)

// timed runs fn n times and reports its mean cost and allocations per call.
func timed(n int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(el.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// probe times direct calls into the public functions of the layers no HTTP
// wrapper can isolate — codec, engine, spill tier, origin renderer — on the
// workload's own documents, while the tier is idle.
func probe(wl *workload, site *origin.Site, tmpDir string, seconds float64, m map[string]float64) error {
	scale := func(n int) int {
		if n = int(float64(n) * seconds / defaultSeconds); n < probeFloorCalls {
			n = probeFloorCalls
		}
		return n
	}
	n := scale(probeCalls)

	// Documents as the workload's clients see them: one department's items
	// over advancing content ticks, for rotating users.
	dept := site.Depts()[0]
	docs := make([][]byte, n)
	var renderErr error
	renderNS, _ := timed(n, func(i int) {
		docs[i], renderErr = site.Render(dept.Name, i%dept.Items, userName(i%wl.Users), i)
	})
	if renderErr != nil {
		return fmt.Errorf("probe: render: %w", renderErr)
	}
	m["origin.render_ns_op"] = renderNS
	base := docs[0]
	targets := docs[1:]

	// vdelta and gzipx, as the engine calls them: an index built once per
	// base version, each delta encoded into reused scratch, then gzipped.
	coder := vdelta.NewCoder()
	ix := coder.NewIndex(base)
	deltas := make([][]byte, len(targets))
	var scratch []byte
	var targetBytes int
	var encErr error
	encNS, encAllocs := timed(len(targets), func(i int) {
		var d []byte
		d, encErr = coder.EncodeIndexedInto(ix, targets[i], scratch)
		scratch = d[:0]
		deltas[i] = append(deltas[i], d...)
		targetBytes += len(targets[i])
	})
	if encErr != nil {
		return fmt.Errorf("probe: vdelta encode: %w", encErr)
	}
	m["vdelta.encode_ns_op"] = encNS
	// One of the allocations per call is the probe's own copy of the delta.
	m["vdelta.encode_allocs_op"] = encAllocs - 1
	m["vdelta.encode_mb_s"] = ratio(float64(targetBytes)/1e6, encNS*float64(len(targets))/1e9)
	sizes := make([]float64, len(deltas))
	for i, d := range deltas {
		sizes[i] = float64(len(d))
	}
	m["vdelta.delta_bytes_p50"] = quantile(sizes, 0.5)

	var decErr error
	m["vdelta.decode_ns_op"], _ = timed(len(deltas), func(i int) {
		if _, err := vdelta.Decode(base, deltas[i]); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return fmt.Errorf("probe: vdelta decode: %w", decErr)
	}

	zipped := make([][]byte, len(deltas))
	var raw, packed int
	m["gzipx.compress_ns_op"], m["gzipx.compress_allocs_op"] = timed(len(deltas), func(i int) {
		zipped[i] = gzipx.Compress(deltas[i])
		raw += len(deltas[i])
		packed += len(zipped[i])
	})
	m["gzipx.ratio"] = ratio(float64(raw), float64(packed))
	m["gzipx.decompress_ns_op"], _ = timed(len(zipped), func(i int) {
		if _, err := gzipx.Decompress(zipped[i]); err != nil {
			decErr = err
		}
	})
	if decErr != nil {
		return fmt.Errorf("probe: gzip decompress: %w", decErr)
	}

	if err := probeEngine(wl, dept, docs, m); err != nil {
		return err
	}
	return probeTier(tmpDir, docs, scale(probeTierCalls), m)
}

// probeEngine times Engine.Process on a fresh engine with the workload's
// configuration (unbudgeted): a request whose delta is memoized, and a
// request for a document the engine has not seen.
func probeEngine(wl *workload, dept origin.Dept, docs [][]byte, m map[string]float64) error {
	cfg := wl.Engine
	cfg.MemBudget = 0
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return fmt.Errorf("probe: engine: %w", err)
	}
	defer eng.Close()
	url := func(i int) string { return siteHost + docPath(dept.Name, i%dept.Items) }

	// Warm until the class distributes a base: enough distinct users to
	// finish anonymization.
	req := core.Request{URL: url(0), Doc: docs[0]}
	for u := 0; u < 64; u++ {
		req.UserID = fmt.Sprintf("warm%03d", u)
		resp, err := eng.Process(req)
		if err != nil {
			return fmt.Errorf("probe: engine warm: %w", err)
		}
		if resp.LatestVersion > 0 {
			req.HaveClassID, req.HaveVersion = resp.ClassID, resp.LatestVersion
			break
		}
	}
	if req.HaveVersion == 0 {
		return fmt.Errorf("probe: engine never distributed a base")
	}
	req.UserID = "probe"
	if _, err := eng.Process(req); err != nil { // fills the memo entry
		return err
	}

	var procErr error
	m["core.process_warm_ns_op"], m["core.process_warm_allocs_op"] = timed(len(docs), func(int) {
		if _, err := eng.Process(req); err != nil {
			procErr = err
		}
	})
	m["core.process_encode_ns_op"], m["core.process_encode_allocs_op"] = timed(len(docs)-1, func(i int) {
		fresh := req
		fresh.URL, fresh.Doc = url(i+1), docs[i+1]
		if _, err := eng.Process(fresh); err != nil {
			procErr = err
		}
	})
	eng.Quiesce()
	if procErr != nil {
		return fmt.Errorf("probe: engine process: %w", procErr)
	}
	return nil
}

// probeTier times the spill tier's Append and Take on class records shaped
// like a resident class: a few base versions plus the selector's samples.
func probeTier(tmpDir string, docs [][]byte, calls int, m map[string]float64) error {
	dir, err := os.MkdirTemp(tmpDir, "probe-tier-")
	if err != nil {
		return fmt.Errorf("probe: tier dir: %w", err)
	}
	defer os.RemoveAll(dir)
	tier, err := store.OpenTier(store.TierConfig{Dir: dir})
	if err != nil {
		return fmt.Errorf("probe: open tier: %w", err)
	}
	defer tier.Close()

	record := func(i int) store.ClassRecord {
		at := func(j int) []byte { return docs[(i+j)%len(docs)] }
		rec := store.ClassRecord{
			Key:             fmt.Sprintf("%s/probe#%d", siteHost, i),
			DistVersion:     3,
			SelectorVersion: 3,
			SelectorBase:    at(0),
		}
		for v := 1; v <= 3; v++ {
			rec.Bases = append(rec.Bases, store.VersionedBlob{Version: v, Bytes: at(v)})
		}
		for c := 0; c < 4; c++ {
			rec.Candidates = append(rec.Candidates, store.TaggedDoc{Tag: userName(c), Bytes: at(4 + c)})
		}
		return rec
	}
	var appendErr error
	appendNS, _ := timed(calls, func(i int) {
		if err := tier.Append(record(i)); err != nil {
			appendErr = err
		}
	})
	if appendErr != nil {
		return fmt.Errorf("probe: tier append: %w", appendErr)
	}
	missing := 0
	takeNS, _ := timed(calls, func(i int) {
		if _, ok := tier.Take(fmt.Sprintf("%s/probe#%d", siteHost, i)); !ok {
			missing++
		}
	})
	if missing > 0 {
		return fmt.Errorf("probe: tier lost %d of %d records", missing, calls)
	}
	m["store.spill_us_op"] = appendNS / 1e3
	m["store.faultin_us_op"] = takeNS / 1e3
	return nil
}
