// Command deltaserver runs the transparent delta-server of Figure 2 in
// front of an origin web-server.
//
// Usage:
//
//	deltaserver -addr :8080 -origin http://localhost:8081 -public-host www.site1.com
//
// Delta-capable clients (cmd-internal or the deltaclient package) receive
// gzipped vdelta payloads; everyone else receives documents unchanged.
// Stats are at /_cbde/stats; class base-files at /_cbde/base/<class>/<v>.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"cbde/internal/anonymize"
	"cbde/internal/basefile"
	"cbde/internal/classify"
	"cbde/internal/cluster"
	"cbde/internal/core"
	"cbde/internal/deltahttp"
	"cbde/internal/deltaserver"
	"cbde/internal/flightrec"
)

const (
	// checkpointEvery is how often a server with -spill-dir appends every
	// resident class's record to the disk tier; a crash loses at most this
	// much of what resident classes learned.
	checkpointEvery = 5 * time.Minute
	// shutdownGrace bounds how long a signal waits for in-flight requests.
	shutdownGrace = 10 * time.Second
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatalf("deltaserver: %v", err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("deltaserver", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		originURL  = fs.String("origin", "http://localhost:8081", "origin web-server URL")
		publicHost = fs.String("public-host", "", "host used as server-part for grouping (default: request Host)")
		mode       = fs.String("mode", "class-based", "mode: class-based | classless | classless-per-user")

		maxProbes = fs.Int("probes", 8, "grouping: max candidate classes probed (N)")
		popular   = fs.Float64("popular-fraction", 0.75, "grouping: fraction of probes on popular classes (a)")
		threshold = fs.Float64("match-threshold", 0.35, "grouping: max delta/doc ratio for a match")

		sampleProb = fs.Float64("sample-prob", 0.2, "selection: candidate sampling probability (p)")
		maxSamples = fs.Int("samples", 8, "selection: stored candidates (K)")
		rebaseTO   = fs.Duration("rebase-timeout", 10*time.Minute, "selection: min interval between group-rebases")

		anonM = fs.Int("anon-m", 2, "anonymization: min distinct users per kept chunk (M); 0 disables privacy")
		anonN = fs.Int("anon-n", 5, "anonymization: distinct-user comparisons required (N)")

		maxDeltaRatio = fs.Float64("max-delta-ratio", 0.5, "basic-rebase when delta exceeds this fraction of the doc")

		memBudget  = fs.String("mem-budget", "", "class-storage byte budget with optional k/m/g suffix (e.g. 64m); empty = unbudgeted")
		spillDir   = fs.String("spill-dir", "", "keep class state in compact binary segments in this directory: evicted classes spill there and fault back in on demand, every class is checkpointed there every 5 minutes and at shutdown, and a restart resumes from it; empty = disabled")
		diskBudget = fs.String("disk-budget", "", "disk-tier byte budget with optional k/m/g suffix; oldest spill segments are dropped when exceeded (with -spill-dir; empty = unbounded)")

		deltaCache        = fs.Bool("delta-cache", true, "memoize encoded deltas per class with singleflight coalescing")
		deltaCacheEntries = fs.Int("delta-cache-entries", 0, "max memoized deltas per class (0 = default 256)")

		graphDepth = fs.Int("graph-depth", 0, "version graph: retained base versions per class, served via direct or chained deltas (0 = default 2; 1 = no edges)")

		nodeID          = fs.String("node-id", "", "cluster: this node's ID (must appear in -peers)")
		peersFlag       = fs.String("peers", "", "cluster: full membership as id=url,... (e.g. a=http://10.0.0.1:8080,b=http://10.0.0.2:8080); empty = standalone")
		clusterRedirect = fs.Bool("cluster-redirect", false, "cluster: 307-redirect non-owned requests to the owner instead of proxy-forwarding")
		probeInterval   = fs.Duration("probe-interval", time.Second, "cluster: peer health-probe interval")
		probeFail       = fs.Int("probe-fail", 3, "cluster: consecutive probe failures that mark a peer dead")
		probeRise       = fs.Int("probe-rise", 2, "cluster: consecutive probe successes that revive a dead peer")

		trace         = fs.Bool("trace", false, "record per-stage pipeline spans (feeds cbde_stage_duration_seconds)")
		traceSampleMS = fs.Int("trace-sample-ms", 50, "flight recorder: tail-sample full span detail for requests at or over this many milliseconds (0 = sample everything)")
		traceRing     = fs.Int("trace-ring", 4096, "flight recorder: ring size in records, rounded up to a power of two (0 = disable the recorder and /_cbde/trace)")
		logRequests   = fs.Bool("log-requests", false, "emit a structured log line per document request")
		pprofAddr     = fs.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	m := core.ModeClassBased
	switch *mode {
	case "class-based":
	case "classless":
		m = core.ModeClassless
	case "classless-per-user":
		m = core.ModeClasslessPerUser
	default:
		log.Printf("unknown -mode %q, using class-based", *mode)
	}

	budget, err := parseBytes(*memBudget)
	if err != nil {
		return fmt.Errorf("-mem-budget: %w", err)
	}
	diskBytes, err := parseBytes(*diskBudget)
	if err != nil {
		return fmt.Errorf("-disk-budget: %w", err)
	}
	if diskBytes > 0 && *spillDir == "" {
		return fmt.Errorf("-disk-budget requires -spill-dir")
	}

	// The cluster comes up before the engine: the node's position in the
	// tier decides the engine's version-numbering stride, so two nodes can
	// never mint the same (class, version) pair.
	var clus *cluster.Cluster
	versionStride, versionOffset := 0, 0
	if *peersFlag != "" {
		peers, err := parsePeers(*peersFlag)
		if err != nil {
			return fmt.Errorf("-peers: %w", err)
		}
		self := *nodeID
		if self == "" && len(peers) > 0 {
			return fmt.Errorf("-peers requires -node-id")
		}
		clus, err = cluster.New(cluster.Config{
			Self:          self,
			Peers:         peers,
			Redirect:      *clusterRedirect,
			ProbeInterval: *probeInterval,
			FailThreshold: *probeFail,
			RiseThreshold: *probeRise,
			HealthPath:    deltahttp.HealthPath,
			Logf:          log.Printf,
		})
		if err != nil {
			return err
		}
		versionStride = clus.Size()
		versionOffset = clus.SelfIndex()
	}

	eng, err := core.NewEngine(core.Config{
		Mode:       m,
		MemBudget:  budget,
		SpillDir:   *spillDir,
		DiskBudget: diskBytes,
		Classify: classify.Config{
			MaxProbes:       *maxProbes,
			PopularFraction: *popular,
			MatchThreshold:  *threshold,
		},
		Selector: basefile.Config{
			SampleProb:    *sampleProb,
			MaxSamples:    *maxSamples,
			RebaseTimeout: *rebaseTO,
			AsyncSampling: true,
			VersionStride: versionStride,
			VersionOffset: versionOffset,
		},
		Anon:              anonymize.Config{M: *anonM, N: *anonN},
		MaxDeltaRatio:     *maxDeltaRatio,
		DeltaCacheOff:     !*deltaCache,
		DeltaCacheEntries: *deltaCacheEntries,
		GraphDepth:        *graphDepth,
	})
	if err != nil {
		return err
	}

	eng.SetTracing(*trace)

	var opts []deltaserver.Option
	if *publicHost != "" {
		opts = append(opts, deltaserver.WithPublicHost(*publicHost))
	}
	if *logRequests {
		opts = append(opts, deltaserver.WithRequestLog(
			slog.New(slog.NewTextHandler(os.Stderr, nil))))
	}
	// Trace contexts and flight-recorder entries name the node even when the
	// server runs standalone.
	self := *nodeID
	if self == "" {
		self = "local"
	}
	opts = append(opts, deltaserver.WithNodeID(self))
	if *traceRing > 0 {
		rec := flightrec.New(self, *traceRing, time.Duration(*traceSampleMS)*time.Millisecond)
		rec.RegisterMetrics(eng.Metrics())
		opts = append(opts, deltaserver.WithFlightRecorder(rec))
		log.Printf("deltaserver: flight recorder: %d-record ring, tail-sampling >= %dms (traces at %s)",
			rec.Len(), *traceSampleMS, deltahttp.TracePath)
	}
	if clus != nil {
		clus.RegisterMetrics(eng.Metrics())
		clus.Start()
		defer clus.Stop()
		opts = append(opts, deltaserver.WithCluster(clus))
		mode := "forward"
		if *clusterRedirect {
			mode = "redirect"
		}
		log.Printf("deltaserver: cluster node %s of %d peers (%s mode, version stride %d offset %d)",
			clus.Self().ID, clus.Size(), mode, versionStride, versionOffset)
	}
	srv, err := deltaserver.New(*originURL, eng, opts...)
	if err != nil {
		return err
	}

	if *pprofAddr != "" {
		// The pprof import registers on http.DefaultServeMux; serve that
		// mux on its own listener so profiling never shares the data port.
		go func() {
			log.Printf("deltaserver: pprof on %s", *pprofAddr)
			log.Printf("deltaserver: pprof server: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
	}

	log.Printf("deltaserver: %s mode, fronting %s on %s (stats at /_cbde/stats, metrics at /_cbde/metrics)", m, *originURL, *addr)
	if budget > 0 {
		log.Printf("deltaserver: class-storage budget %d bytes (snapshot at /_cbde/store)", budget)
	}
	if *spillDir != "" {
		ts := eng.SpillStats()
		log.Printf("deltaserver: disk tier at %s (budget %d bytes, %d classes recovered)", *spillDir, diskBytes, ts.SpilledClasses)
		if ts.SkippedSegments > 0 {
			log.Printf("deltaserver: ignored %d spill segments with no readable record (written by an older build?); their classes re-warm from traffic", ts.SkippedSegments)
		}
	}

	// Signals are caught before the listener opens, so there is no window
	// in which a SIGTERM skips the final checkpoint.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.ListenAndServe() }()
	var tick <-chan time.Time
	if *spillDir != "" {
		ticker := time.NewTicker(checkpointEvery)
		defer ticker.Stop()
		tick = ticker.C
	}
	for serving := true; serving; {
		select {
		case err := <-serveErr:
			return err
		case <-tick:
			if _, err := eng.Checkpoint(); err != nil {
				log.Printf("deltaserver: periodic checkpoint: %v", err)
			}
		case <-ctx.Done():
			serving = false
		}
	}

	// Drain first, checkpoint second: a base installed by a request still in
	// flight must be in the final records, or its version number would be
	// minted again for different bytes after the restart.
	log.Printf("deltaserver: shutting down")
	drain, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := httpSrv.Shutdown(drain); err != nil {
		log.Printf("deltaserver: drain: %v", err)
	}
	n, err := eng.Checkpoint()
	if *spillDir != "" {
		log.Printf("deltaserver: checkpointed %d classes to %s", n, *spillDir)
	}
	return errors.Join(err, eng.Close())
}

// parsePeers parses the -peers flag: comma-separated id=url entries. A bare
// URL (no "=") uses the URL itself as the node ID.
func parsePeers(s string) ([]cluster.Node, error) {
	var peers []cluster.Node
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		id, u, found := strings.Cut(entry, "=")
		if !found {
			id, u = entry, entry
		}
		if id == "" || u == "" {
			return nil, fmt.Errorf("bad peer entry %q, want id=url", entry)
		}
		peers = append(peers, cluster.Node{ID: id, URL: strings.TrimSuffix(u, "/")})
	}
	return peers, nil
}

// parseBytes parses a byte count with an optional k/m/g suffix (powers of
// 1024, case-insensitive). Empty means 0 (unbudgeted).
func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	switch s[len(s)-1] {
	case 'k':
		mult, s = 1<<10, s[:len(s)-1]
	case 'm':
		mult, s = 1<<20, s[:len(s)-1]
	case 'g':
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad byte count %q", s)
	}
	return n * mult, nil
}
