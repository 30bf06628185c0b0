// Command loadgen drives a running delta-server (or a proxy-cache in front
// of one) with concurrent delta-capable clients and reports throughput,
// latency percentiles, and the transfer ledger.
//
// Usage:
//
//	loadgen -server http://localhost:8080 -paths /laptops/0,/laptops/1 \
//	        -clients 32 -requests 100
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"cbde/internal/loadgen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatalf("loadgen: %v", err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		server   = fs.String("server", "http://localhost:8080", "delta-server base URL, or a comma-separated list to spray clients across a cluster")
		paths    = fs.String("paths", "/laptops/0", "comma-separated document paths")
		clients  = fs.Int("clients", 8, "concurrent delta-capable clients")
		requests = fs.Int("requests", 50, "requests per client")
		verify   = fs.Bool("verify", false, "byte-compare every reconstruction against a plain re-fetch; exit non-zero on mismatch")
		repeat   = fs.Float64("repeat", 0, "fraction of requests repeating the previous path (0..1); exercises the delta memo cache")
		lag      = fs.Float64("lag", 0, "mean client staleness in versions (geometric); clients refresh base-files behind latest and exercise the server's version graph")
		diurnal  = fs.Int("diurnal", 0, "alternate each client between the two halves of -paths this many cycles per run; with a budgeted server the idle half evicts (and spills) while the other is hot")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var pathList []string
	for _, p := range strings.Split(*paths, ",") {
		if p = strings.TrimSpace(p); p != "" {
			pathList = append(pathList, p)
		}
	}
	var serverList []string
	for _, s := range strings.Split(*server, ",") {
		if s = strings.TrimSpace(s); s != "" {
			serverList = append(serverList, strings.TrimSuffix(s, "/"))
		}
	}
	res, err := loadgen.Run(loadgen.Config{
		ServerURLs:        serverList,
		Paths:             pathList,
		Clients:           *clients,
		RequestsPerClient: *requests,
		Verify:            *verify,
		RepeatRatio:       *repeat,
		LagMean:           *lag,
		DiurnalCycles:     *diurnal,
	})
	if err != nil {
		return err
	}
	fmt.Println(res)
	if res.Mismatches > 0 {
		return fmt.Errorf("%d document mismatches", res.Mismatches)
	}
	return nil
}
