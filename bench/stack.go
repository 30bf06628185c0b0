package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cbde/internal/cluster"
	"cbde/internal/core"
	"cbde/internal/deltaclient"
	"cbde/internal/deltaserver"
	"cbde/internal/flightrec"
	"cbde/internal/origin"
)

// loopServer is an http.Server on an ephemeral loopback port.
type loopServer struct {
	srv  *http.Server
	url  string
	host string
	done chan struct{}
}

func listenLoopback() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

func serveLoopback(l net.Listener, h http.Handler) *loopServer {
	s := &loopServer{
		srv:  &http.Server{Handler: h},
		url:  "http://" + l.Addr().String(),
		host: l.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(l) // returns ErrServerClosed after close
	}()
	return s
}

func (s *loopServer) close() {
	_ = s.srv.Close()
	<-s.done
}

// node is one delta-server of the tier.
type node struct {
	eng     *core.Engine
	cluster *cluster.Cluster // nil standalone
	front   *loopServer
	tr      *http.Transport
}

// stack is the whole request path in one process over loopback TCP:
// origin.Site.Handler() → 1 or more deltaserver.Servers → one
// deltaclient.Client per user, multiplexed over the worker connections.
type stack struct {
	wl      *workload
	site    *origin.Site
	digests *digestTable
	rec     *recorder
	origin  *loopServer
	nodes   []*node
	dials   atomic.Int64 // TCP dials made by the delta-servers (origin + peers)

	clientTr *http.Transport
	workers  []*clientTransport // per worker; index = worker
	clients  []*deltaclient.Client
	userNode []int // user → node it is pinned to

	// issued counts requests started, across every phase. It drives the
	// origin's content ticks and the engines' clock, so neither depends on
	// wall time.
	issued atomic.Int64

	spillRoot string
}

// clockEpoch is where the engines' request-counter clock starts.
var clockEpoch = time.Date(2002, 7, 1, 0, 0, 0, 0, time.UTC)

// now is the engines' clock: one millisecond per request issued.
func (s *stack) now() time.Time {
	return clockEpoch.Add(time.Duration(s.issued.Load()) * time.Millisecond)
}

// tick accounts for one request about to be sent and advances the site's
// content on every TickEvery-th.
func (s *stack) tick() {
	if n := s.issued.Add(1); n%int64(s.wl.TickEvery) == 0 {
		s.site.Advance(1)
	}
}

// countingDialer counts the TCP connections a transport opens.
func countingDialer(n *atomic.Int64) func(ctx context.Context, network, addr string) (net.Conn, error) {
	d := &net.Dialer{Timeout: 10 * time.Second, KeepAlive: 30 * time.Second}
	return func(ctx context.Context, network, addr string) (net.Conn, error) {
		n.Add(1)
		return d.DialContext(ctx, network, addr)
	}
}

// buildStack builds the tier for wl with `workers` client connections.
// tmpDir is where spill directories go. The tier is cold: call warm next.
func buildStack(wl *workload, workers int, seed uint64, tmpDir string) (*stack, error) {
	s := &stack{
		wl:      wl,
		site:    origin.NewSite(wl.Site),
		digests: newDigestTable(),
		rec:     newRecorder(),
	}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()

	ol, err := listenLoopback()
	if err != nil {
		return nil, fmt.Errorf("listen for origin: %w", err)
	}
	s.origin = serveLoopback(ol, recordDigests(s.digests, traceOrigin(s.rec, s.site.Handler())))

	if wl.Spill {
		s.spillRoot, err = os.MkdirTemp(tmpDir, "spill-")
		if err != nil {
			return nil, fmt.Errorf("create spill dir: %w", err)
		}
	}

	// Every node listens before any is built: a clustered node needs all
	// its peers' URLs.
	listeners := make([]net.Listener, wl.Nodes)
	peers := make([]cluster.Node, wl.Nodes)
	for i := range listeners {
		if listeners[i], err = listenLoopback(); err != nil {
			for _, l := range listeners[:i] {
				l.Close()
			}
			return nil, fmt.Errorf("listen for node %d: %w", i, err)
		}
		peers[i] = cluster.Node{ID: fmt.Sprintf("node-%d", i), URL: "http://" + listeners[i].Addr().String()}
	}
	for i, l := range listeners {
		n, err := s.buildNode(i, l, peers)
		if err != nil {
			for _, rest := range listeners[i:] {
				rest.Close()
			}
			return nil, err
		}
		s.nodes = append(s.nodes, n)
	}

	// Clients: one shared transport (one connection per worker and node),
	// seen through a per-worker wrapper that parents round trips to the
	// worker's Get in progress.
	s.clientTr = http.DefaultTransport.(*http.Transport).Clone()
	s.clientTr.MaxIdleConnsPerHost = workers
	for w := 0; w < workers; w++ {
		s.workers = append(s.workers, &clientTransport{base: s.clientTr, rec: s.rec})
	}
	for u := 0; u < wl.Users; u++ {
		nodeIdx := u % wl.Nodes
		s.userNode = append(s.userNode, nodeIdx)
		opts := []deltaclient.Option{
			deltaclient.WithUser(userName(u)),
			deltaclient.WithHTTPClient(&http.Client{Transport: s.workers[u%workers], Timeout: 30 * time.Second}),
		}
		if wl.LagMean > 0 {
			// The hook runs on the goroutine calling Get, which is always
			// the one worker this user is pinned to.
			rng := rand.New(rand.NewPCG(seed, uint64(u)))
			mean := wl.LagMean
			opts = append(opts, deltaclient.WithRefreshLag(func(latest int) int {
				return latest - geometric(rng, mean)
			}))
		}
		s.clients = append(s.clients, deltaclient.New(s.nodes[nodeIdx].front.url, opts...))
	}
	ok = true
	return s, nil
}

func (s *stack) buildNode(i int, l net.Listener, peers []cluster.Node) (*node, error) {
	n := &node{}
	cfg := s.wl.Engine
	cfg.Now = s.now
	if s.spillRoot != "" {
		cfg.SpillDir = filepath.Join(s.spillRoot, peers[i].ID)
	}
	opts := []deltaserver.Option{
		deltaserver.WithPublicHost(siteHost),
		deltaserver.WithNodeID(peers[i].ID),
	}
	if len(peers) > 1 {
		cl, err := cluster.New(cluster.Config{Self: peers[i].ID, Peers: peers})
		if err != nil {
			return nil, err
		}
		// The prober is never started: every peer counts as alive, and the
		// tier has no background traffic of its own.
		n.cluster = cl
		cfg.Selector.VersionStride = cl.Size()
		cfg.Selector.VersionOffset = cl.SelfIndex()
		opts = append(opts, deltaserver.WithCluster(cl))
	}
	eng, err := core.NewEngine(cfg)
	if err != nil {
		return nil, fmt.Errorf("node %d engine: %w", i, err)
	}
	n.eng = eng

	// cmd/deltaserver's defaults: a 4096-record flight recorder sampling
	// at 50 ms, and an origin/peer client on net/http's default transport
	// settings (here a private clone, as separate processes would have).
	fr := flightrec.New(peers[i].ID, 4096, 50*time.Millisecond)
	fr.RegisterMetrics(eng.Metrics())
	n.tr = http.DefaultTransport.(*http.Transport).Clone()
	n.tr.DialContext = countingDialer(&s.dials)
	opts = append(opts,
		deltaserver.WithFlightRecorder(fr),
		deltaserver.WithHTTPClient(&http.Client{
			Transport: &serverTransport{base: n.tr, rec: s.rec, originHost: s.origin.host},
			Timeout:   30 * time.Second,
		}),
	)
	ds, err := deltaserver.New(s.origin.url, eng, opts...)
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("node %d server: %w", i, err)
	}
	n.front = serveLoopback(l, traceServer(s.rec, ds))
	return n, nil
}

// close stops every server, waits for their goroutines, closes the engines
// and removes the spill directories.
func (s *stack) close() {
	if s.clientTr != nil {
		s.clientTr.CloseIdleConnections()
	}
	for _, n := range s.nodes {
		n.front.close()
		n.tr.CloseIdleConnections()
	}
	if s.origin != nil {
		s.origin.close()
	}
	for _, n := range s.nodes {
		n.eng.Quiesce()
		_ = n.eng.Close()
	}
	if s.spillRoot != "" {
		_ = os.RemoveAll(s.spillRoot)
	}
}

func userName(u int) string { return fmt.Sprintf("user%03d", u) }

// geometric draws a staleness 0, 1, 2, … with the given mean.
func geometric(rng *rand.Rand, mean float64) int {
	p := 1 / (1 + mean)
	n := 0
	for rng.Float64() >= p && n < 1<<10 {
		n++
	}
	return n
}

// warm drives the cold tier until every class has a distributed,
// anonymized base-file: each document is requested once (so every URL is
// grouped), then one document per department by enough distinct users to
// finish anonymization.
func (s *stack) warm() error {
	hc := &http.Client{Transport: s.clientTr, Timeout: 30 * time.Second}
	warmUsers := s.wl.Engine.Anon.N + 3
	get := func(user int, path string) error {
		// Warm users sit beside, not inside, the measured population.
		name := fmt.Sprintf("warm%03d", user)
		cl := deltaclient.New(s.nodes[user%len(s.nodes)].front.url,
			deltaclient.WithUser(name), deltaclient.WithHTTPClient(hc))
		s.tick()
		doc, err := cl.Get(path)
		if doc == nil {
			return fmt.Errorf("warm %s as %s: %w", path, name, err)
		}
		return nil
	}
	depts := s.site.Depts()
	for round := 0; round < 8; round++ {
		var wg sync.WaitGroup
		errs := make([]error, len(depts))
		for d, dept := range depts {
			wg.Add(1)
			go func(d int, dept origin.Dept) {
				defer wg.Done()
				if round == 0 {
					for item := 0; item < dept.Items; item++ {
						if errs[d] = get(item, docPath(dept.Name, item)); errs[d] != nil {
							return
						}
					}
				}
				for u := 0; u < warmUsers; u++ {
					if errs[d] = get(round*warmUsers+u, docPath(dept.Name, 0)); errs[d] != nil {
						return
					}
				}
			}(d, dept)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		if s.allClassesDistributed() {
			return nil
		}
	}
	return fmt.Errorf("warm: classes still without a distributed base after 8 rounds")
}

func (s *stack) allClassesDistributed() bool {
	classes := 0
	for _, n := range s.nodes {
		for _, cs := range n.eng.AllClassStats() {
			classes++
			if cs.BaseVersion == 0 && !cs.Spilled {
				return false
			}
		}
	}
	return classes > 0
}

func docPath(dept string, item int) string { return fmt.Sprintf("/%s/%d", dept, item) }
