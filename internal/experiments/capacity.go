package experiments

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"cbde/internal/anonymize"
	"cbde/internal/basefile"
	"cbde/internal/core"
	"cbde/internal/deltahttp"
	"cbde/internal/deltaserver"
	"cbde/internal/origin"
	"cbde/internal/vdelta"
)

// CapacityResult reproduces the Section VI-C comparison: the request
// throughput of a plain web-server vs the web-server fronted by the
// delta-server, plus the per-delta generation cost. The paper reports a
// plain Apache at 175-180 req/s vs ~130 req/s with the delta-server
// (~72-74%), and 6-8 ms to generate a delta from a 50-60 KB base-file.
// Absolute numbers differ on modern hardware; the ratio and the
// smallness of the per-delta cost are the reproducible shape.
type CapacityResult struct {
	PlainRequests int
	PlainSeconds  float64
	DeltaRequests int
	DeltaSeconds  float64

	DeltaGenMillis float64 // mean delta generation time, 50-60 KB base
	DeltaGenBase   int     // base-file size used
	DeltaGenDelta  int     // raw delta size produced
}

// PlainRPS returns the plain server's requests per second.
func (c CapacityResult) PlainRPS() float64 {
	if c.PlainSeconds == 0 {
		return 0
	}
	return float64(c.PlainRequests) / c.PlainSeconds
}

// DeltaRPS returns the delta-server system's requests per second.
func (c CapacityResult) DeltaRPS() float64 {
	if c.DeltaSeconds == 0 {
		return 0
	}
	return float64(c.DeltaRequests) / c.DeltaSeconds
}

// CapacityRatio returns DeltaRPS/PlainRPS — the paper's ~130/177 ~ 0.73.
func (c CapacityResult) CapacityRatio() float64 {
	p := c.PlainRPS()
	if p == 0 {
		return 0
	}
	return c.DeltaRPS() / p
}

// originWorkFactor calibrates the per-request cost of the origin to the
// paper's 2002 testbed, where a plain Apache 1.3.17 on a Pentium III
// sustained 175-180 req/s (~5.6 ms per request) generating dynamic pages.
// A Go renderer takes ~75 us, which would make the capacity comparison
// meaningless; this documented substitution restores a realistic origin
// cost so the ratio (paper: ~130/177 ~ 0.73) is reproducible in shape.
const originWorkFactor = 5 * time.Millisecond

// capacitySite builds the ~55 KB-document site used for capacity runs,
// matching the paper's 50-60 KB base-files.
func capacitySite(workFactor time.Duration) *origin.Site {
	return origin.NewSite(origin.Config{
		Host:          "www.cap.com",
		Style:         origin.StylePathSegments,
		Depts:         []origin.Dept{{Name: "catalog", Items: 8}},
		TemplateBytes: 48000,
		ItemBytes:     5000,
		ChurnBytes:    2000,
		WorkFactor:    workFactor,
		Seed:          606,
	})
}

// Capacity measures plain-vs-delta-server throughput by driving each
// handler in-process for the given number of requests, then times delta
// generation on a 50-60 KB base. requests controls the measurement length.
func Capacity(requests int) (CapacityResult, error) {
	if requests <= 0 {
		requests = 400
	}
	site := capacitySite(originWorkFactor)

	var res CapacityResult

	// Plain web-server.
	plain := site.Handler()
	res.PlainRequests = requests
	res.PlainSeconds = driveHandler(plain, requests, site)

	// Web-server + delta-server, with a client population holding bases so
	// the hot path is delta generation (the expensive case the paper
	// measures).
	originSrv := httptest.NewServer(site.Handler())
	defer originSrv.Close()
	eng, err := core.NewEngine(core.Config{
		Anon: anonymize.Config{M: 1, N: 2},
		// Candidate-delta computation happens off the serving path, as the
		// paper prescribes (Section IV: "can be done offline").
		Selector: basefile.Config{
			SampleProb: 0.2, MaxSamples: 8, AsyncSampling: true,
			// Keep rebases (and the anonymization passes they trigger) off
			// the measured serving path, as in steady-state operation.
			RebaseTimeout: time.Hour,
		},
		Now: monotonicClock(),
	})
	if err != nil {
		return CapacityResult{}, err
	}
	ds, err := deltaserver.New(originSrv.URL, eng, deltaserver.WithPublicHost("www.cap.com"))
	if err != nil {
		return CapacityResult{}, err
	}

	// Warm: finish anonymization and learn each item's class/version, kept
	// as the X-CBDE-Have value the measured requests advertise.
	haveFor := make(map[int]string)
	for i := 0; i < 24; i++ {
		item := i % 8
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/catalog/%d", item), nil)
		req.Header.Set(deltahttp.HeaderCapable, "1")
		req.Header.Set(deltahttp.HeaderUser, fmt.Sprintf("warm-%d", i))
		ds.ServeHTTP(rec, req)
		if cls := rec.Header().Get(deltahttp.HeaderClass); cls != "" {
			if v, err := strconv.Atoi(rec.Header().Get(deltahttp.HeaderLatestVersion)); err == nil && v > 0 {
				haveFor[item] = deltahttp.FormatHave([]deltahttp.Held{{ClassID: cls, Version: v}})
			}
		}
	}
	if len(haveFor) == 0 {
		return CapacityResult{}, fmt.Errorf("experiments: capacity warmup produced no distributable bases")
	}

	start := time.Now()
	for i := 0; i < requests; i++ {
		item := i % 8
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/catalog/%d", item), nil)
		req.Header.Set(deltahttp.HeaderCapable, "1")
		req.Header.Set(deltahttp.HeaderUser, fmt.Sprintf("u%d", i%50))
		if have, ok := haveFor[item]; ok {
			req.Header.Set(deltahttp.HeaderHave, have)
		}
		ds.ServeHTTP(rec, req)
	}
	res.DeltaRequests = requests
	res.DeltaSeconds = time.Since(start).Seconds()

	// Per-delta generation cost on a 50-60 KB base.
	base, err := site.Render("catalog", 0, "", 0)
	if err != nil {
		return CapacityResult{}, err
	}
	target, err := site.Render("catalog", 0, "", 3)
	if err != nil {
		return CapacityResult{}, err
	}
	coder := vdelta.NewCoder()
	const reps = 30
	genStart := time.Now()
	var delta []byte
	for i := 0; i < reps; i++ {
		delta, err = coder.Encode(base, target)
		if err != nil {
			return CapacityResult{}, err
		}
	}
	res.DeltaGenMillis = float64(time.Since(genStart).Milliseconds()) / reps
	res.DeltaGenBase = len(base)
	res.DeltaGenDelta = len(delta)
	return res, nil
}

// driveHandler serves `requests` in-process requests and returns elapsed
// seconds.
func driveHandler(h http.Handler, requests int, site *origin.Site) float64 {
	items := site.Depts()[0].Items
	start := time.Now()
	for i := 0; i < requests; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/catalog/%d", i%items), nil)
		h.ServeHTTP(rec, req)
	}
	return time.Since(start).Seconds()
}

// monotonicClock returns a deterministic strictly increasing clock.
func monotonicClock() func() time.Time {
	base := time.Unix(1_000_000, 0)
	n := 0
	return func() time.Time {
		n++
		return base.Add(time.Duration(n) * time.Millisecond)
	}
}

// FormatCapacity renders the capacity comparison.
func FormatCapacity(c CapacityResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "plain web-server:        %8.0f req/s (%d requests)\n", c.PlainRPS(), c.PlainRequests)
	fmt.Fprintf(&b, "delta + web-server:      %8.0f req/s (%d requests)\n", c.DeltaRPS(), c.DeltaRequests)
	fmt.Fprintf(&b, "capacity ratio:          %8.2f (paper: ~0.73)\n", c.CapacityRatio())
	fmt.Fprintf(&b, "delta generation:        %8.2f ms for a %d-byte base (delta %d bytes)\n",
		c.DeltaGenMillis, c.DeltaGenBase, c.DeltaGenDelta)
	return b.String()
}
