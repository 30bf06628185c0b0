// Package loadgen drives a delta-server with a population of concurrent
// delta-capable clients and reports throughput, latency percentiles, and
// the transfer ledger — the measurement side of the Section VI-C
// concurrency discussion.
package loadgen

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"cbde/internal/deltaclient"
	"cbde/internal/deltahttp"
	"cbde/internal/metrics"
)

// Config parametrizes a load run.
type Config struct {
	// ServerURL is the delta-server (or proxy-cache) base URL.
	ServerURL string
	// ServerURLs, when set, sprays clients across a delta-server tier:
	// client c talks to ServerURLs[c % len(ServerURLs)] for its entire run
	// (deltas, base-files, and Verify re-fetches all go through the
	// client's own node, exactly as a load balancer would pin it). Takes
	// precedence over ServerURL.
	ServerURLs []string
	// Paths are the document paths clients rotate through.
	Paths []string
	// Clients is the number of concurrent delta-capable clients.
	// Default 8.
	Clients int
	// RequestsPerClient is how many requests each client issues.
	// Default 50.
	RequestsPerClient int
	// UserPrefix names client identities ("<prefix>-<n>"). Default "load".
	UserPrefix string
	// Verify re-fetches every document as a plain (non-capable) client
	// with the same user identity and byte-compares it against the
	// delta-path reconstruction; differences count as Result.Mismatches.
	// Requires a deterministic origin (same path + user → same bytes).
	Verify bool
	// RepeatRatio is the fraction of requests (0..1) that re-request the
	// client's previous path instead of rotating to the next one. Repeats
	// land on the server's delta memo cache (same class, same held
	// version, same document), so with Verify this byte-compares
	// cached-path responses against plain re-fetches — the memoization
	// correctness mode. 0 (default) rotates every request, as before.
	RepeatRatio float64
	// LagMean, when positive, makes clients refresh their base-files
	// behind the server's announced latest version: each refresh draws a
	// staleness from a geometric distribution with this mean and fetches
	// max(1, latest-lag) instead of latest. Lagging clients exercise the
	// server's version graph — they are served direct old-version deltas
	// or composed chains, and with Verify every reconstruction is still
	// byte-compared against a plain fetch. 0 (default) refreshes to the
	// latest version, as before.
	LagMean float64
	// DiurnalCycles, when positive, splits Paths into two halves and
	// alternates each client between them that many times over its run — a
	// compressed diurnal traffic pattern. Classes in the idle half go cold
	// and are evicted (spilled, with the disk tier on) while the active
	// half is hot, then fault back in when their phase returns; with
	// Verify every post-fault-in reconstruction is byte-compared against a
	// plain fetch. 0 (default) keeps the flat rotation. Needs at least two
	// paths to have any effect.
	DiurnalCycles int
}

func (c Config) withDefaults() (Config, error) {
	if len(c.ServerURLs) == 0 && c.ServerURL != "" {
		c.ServerURLs = []string{c.ServerURL}
	}
	if len(c.ServerURLs) == 0 {
		return c, fmt.Errorf("loadgen: ServerURL required")
	}
	if len(c.Paths) == 0 {
		return c, fmt.Errorf("loadgen: at least one path required")
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.RequestsPerClient <= 0 {
		c.RequestsPerClient = 50
	}
	if c.UserPrefix == "" {
		c.UserPrefix = "load"
	}
	return c, nil
}

// Result summarizes a load run.
type Result struct {
	Requests int
	Errors   int
	Elapsed  time.Duration

	LatencyP50 time.Duration
	LatencyP90 time.Duration
	LatencyP95 time.Duration
	LatencyP99 time.Duration

	DocumentBytes  int64 // reconstructed document volume delivered
	PayloadBytes   int64 // body bytes over the wire (deltas + fulls)
	BaseBytes      int64 // base-file bytes downloaded
	DeltaResponses int
	ChainResponses int // delta responses that arrived as composed chains
	FullResponses  int

	// Mismatches counts documents whose delta-path reconstruction differed
	// from a plain re-fetch (only with Config.Verify). Any nonzero value is
	// a correctness failure.
	Mismatches int
}

// RPS returns requests per second.
func (r Result) RPS() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// Savings returns the end-to-end transfer savings versus shipping every
// document in full (base-file downloads charged).
func (r Result) Savings() float64 {
	if r.DocumentBytes == 0 {
		return 0
	}
	return 1 - float64(r.PayloadBytes+r.BaseBytes)/float64(r.DocumentBytes)
}

// String renders the result for the CLI.
func (r Result) String() string {
	s := fmt.Sprintf(
		"requests %d (%d errors) in %v = %.0f req/s\n"+
			"latency  p50 %v  p90 %v  p95 %v  p99 %v\n"+
			"transfer %d KB payload + %d KB bases for %d KB of documents (%.0f%% saved)\n"+
			"responses %d deltas, %d fulls",
		r.Requests, r.Errors, r.Elapsed.Round(time.Millisecond), r.RPS(),
		r.LatencyP50.Round(time.Microsecond), r.LatencyP90.Round(time.Microsecond), r.LatencyP95.Round(time.Microsecond), r.LatencyP99.Round(time.Microsecond),
		r.PayloadBytes/1024, r.BaseBytes/1024, r.DocumentBytes/1024, r.Savings()*100,
		r.DeltaResponses, r.FullResponses)
	if r.ChainResponses > 0 {
		s += fmt.Sprintf(" (%d chained)", r.ChainResponses)
	}
	if r.Mismatches > 0 {
		s += fmt.Sprintf("\nVERIFY FAILED: %d document mismatches", r.Mismatches)
	}
	return s
}

// Run executes the load run and blocks until every client finishes.
func Run(cfg Config) (Result, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return Result{}, err
	}

	lat := metrics.NewHistogram()
	var mu sync.Mutex
	var res Result

	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			user := fmt.Sprintf("%s-%d", cfg.UserPrefix, c)
			server := cfg.ServerURLs[c%len(cfg.ServerURLs)]
			opts := []deltaclient.Option{deltaclient.WithUser(user)}
			rng := rand.New(rand.NewSource(int64(c) + 1))
			if cfg.LagMean > 0 {
				// The hook runs on this client's goroutine (deltaclient.Get
				// is synchronous), so sharing rng with the repeat draw below
				// is race-free.
				opts = append(opts, deltaclient.WithRefreshLag(func(latest int) int {
					return latest - geometric(rng, cfg.LagMean)
				}))
			}
			cl := deltaclient.New(server, opts...)

			var docBytes int64
			errs, mismatches := 0, 0
			// Diurnal mode rotates within alternating halves of the path
			// set; half switches happen 2*DiurnalCycles times per run so
			// each half sees DiurnalCycles active phases.
			firstHalf, secondHalf := cfg.Paths, cfg.Paths
			if cfg.DiurnalCycles > 0 && len(cfg.Paths) > 1 {
				firstHalf = cfg.Paths[:len(cfg.Paths)/2]
				secondHalf = cfg.Paths[len(cfg.Paths)/2:]
			}
			pathAt := func(i int) string {
				set := cfg.Paths
				if cfg.DiurnalCycles > 0 && len(cfg.Paths) > 1 {
					if phase := i * 2 * cfg.DiurnalCycles / cfg.RequestsPerClient; phase%2 == 0 {
						set = firstHalf
					} else {
						set = secondHalf
					}
				}
				return set[(c+i)%len(set)]
			}
			path := pathAt(0)
			for i := 0; i < cfg.RequestsPerClient; i++ {
				if i > 0 && !(cfg.RepeatRatio > 0 && rng.Float64() < cfg.RepeatRatio) {
					path = pathAt(i)
				}
				t0 := time.Now()
				doc, _ := cl.Get(path)
				lat.Observe(float64(time.Since(t0).Nanoseconds()))
				if doc == nil {
					// err with a document is a non-fatal base-refresh
					// failure (e.g. the advertised base was evicted before
					// the client fetched it); the response itself is good.
					errs++
					continue
				}
				docBytes += int64(len(doc))
				if cfg.Verify {
					plain, err := fetchPlain(server+path, user)
					if err != nil {
						errs++
					} else if !bytes.Equal(doc, plain) {
						mismatches++
					}
				}
			}
			st := cl.Stats()
			mu.Lock()
			res.Requests += cfg.RequestsPerClient
			res.Errors += errs
			res.DocumentBytes += docBytes
			res.PayloadBytes += st.PayloadBytes
			res.BaseBytes += st.BaseBytes
			res.DeltaResponses += st.DeltaResponses
			res.ChainResponses += st.ChainResponses
			res.FullResponses += st.FullResponses
			res.Mismatches += mismatches
			mu.Unlock()
		}(c)
	}
	wg.Wait()

	res.Elapsed = time.Since(start)
	// One reservoir copy and sort serves all four estimates.
	qs := lat.Quantiles(0.50, 0.90, 0.95, 0.99)
	res.LatencyP50 = time.Duration(qs[0])
	res.LatencyP90 = time.Duration(qs[1])
	res.LatencyP95 = time.Duration(qs[2])
	res.LatencyP99 = time.Duration(qs[3])
	return res, nil
}

// geometric draws a geometrically distributed staleness (0, 1, 2, ...)
// with the given mean: the number of failures before the first success at
// p = 1/(1+mean). Most refreshes land near the latest version with an
// exponentially thinning tail of deep laggards — the shape of a client
// population that refreshes on its own schedule.
func geometric(rng *rand.Rand, mean float64) int {
	p := 1 / (1 + mean)
	n := 0
	for rng.Float64() >= p && n < 1<<10 {
		n++
	}
	return n
}

// fetchPlain fetches a document as a non-capable client would: no delta
// headers, just the user identity. The delta-server proxies it through
// untouched, so the body is ground truth for verification.
func fetchPlain(url, user string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set(deltahttp.HeaderUser, user)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("loadgen: plain fetch %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}
