// Command cbdestat snapshots a running delta-server's observability
// endpoints: the global counter dump, the per-class stats table, and the
// Prometheus exposition.
//
// Usage:
//
//	cbdestat -server http://localhost:8080            # global + store + per-class table
//	cbdestat -server http://localhost:8080 -class ID  # one class as JSON
//	cbdestat -server http://localhost:8080 -store     # raw storage-governance JSON
//	cbdestat -server http://localhost:8080 -metrics   # raw exposition dump
//	cbdestat -server http://localhost:8080 -check     # validate exposition (CI)
//	cbdestat -trace -peers url1,url2,...              # join flight-recorder traces across a tier
//
// -check fetches /_cbde/metrics, parses it as Prometheus text format, and
// exits non-zero if it does not parse or lacks the core CBDE series; CI's
// smoke job runs it against a freshly loaded stack.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/url"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"cbde/internal/cluster"
	"cbde/internal/core"
	"cbde/internal/deltahttp"
	"cbde/internal/metrics"
	"cbde/internal/store"
)

// coreSeries are the series -check requires; they cover the acceptance
// criteria (per-class delta hits, bytes saved, per-stage latency) plus the
// legacy global counters.
var coreSeries = []string{
	"cbde_class_requests_total",
	"cbde_class_delta_hits_total",
	"cbde_class_bytes_in_total",
	"cbde_class_bytes_shipped_total",
	"cbde_bytes_saved_total",
	"cbde_classes",
	"cbde_delta_cache_hits_total",
	"cbde_delta_cache_misses_total",
	"cbde_delta_cache_coalesced_total",
	"cbde_responses_total",
	"cbde_graph_chain_length_bucket",
	"cbde_stage_duration_seconds_bucket",
	"cbde_stage_duration_seconds_sum",
	"cbde_stage_duration_seconds_count",
	"cbde_process_duration_seconds_bucket",
	"cbde_process_duration_seconds_quantile",
	"cbde_build_info",
	"requests",
	"bytes_direct",
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatalf("cbdestat: %v", err)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cbdestat", flag.ContinueOnError)
	var (
		server    = fs.String("server", "http://localhost:8080", "delta-server base URL")
		class     = fs.String("class", "", "dump one class's stats as JSON (or filter -trace output)")
		rawStore  = fs.Bool("store", false, "dump the raw storage-governance snapshot as JSON")
		rawMet    = fs.Bool("metrics", false, "dump the raw Prometheus exposition")
		check     = fs.Bool("check", false, "validate the exposition and core series; exit non-zero on failure")
		traceMode = fs.Bool("trace", false, "fetch /_cbde/trace from every -peers node (or -server), join traces by ID, and print per-hop breakdowns")
		peers     = fs.String("peers", "", "trace mode: comma-separated node URLs or id=url pairs to join across (default: -server alone)")
		minMS     = fs.Float64("min-ms", 0, "trace mode: only traces at least this slow (server-side total, any hop)")
		outcome   = fs.String("outcome", "", "trace mode: only records with this outcome (delta|full|forwarded|...)")
		limit     = fs.Int("limit", 20, "trace mode: print at most this many traces, newest first (0 = all)")
		timeout   = fs.Duration("timeout", 10*time.Second, "HTTP timeout")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	client := &http.Client{Timeout: *timeout}

	switch {
	case *traceMode:
		return traceJoin(client, *server, *peers, traceFilter{
			class: *class, minMS: *minMS, outcome: *outcome, limit: *limit,
		}, out)
	case *check:
		return checkMetrics(client, *server, out)
	case *rawMet:
		body, err := fetch(client, *server+deltahttp.MetricsPath)
		if err != nil {
			return err
		}
		_, err = out.Write(body)
		return err
	case *rawStore:
		body, err := fetch(client, *server+deltahttp.StorePath)
		if err != nil {
			return err
		}
		_, err = out.Write(body)
		return err
	case *class != "":
		body, err := fetch(client, *server+deltahttp.StatsPath+"?class="+url.QueryEscape(*class))
		if err != nil {
			return err
		}
		_, err = out.Write(body)
		return err
	default:
		return snapshot(client, *server, out)
	}
}

func fetch(client *http.Client, u string) ([]byte, error) {
	resp, err := client.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", u, resp.Status, body)
	}
	return body, nil
}

// snapshot prints the global counter dump, the P_error line, the
// storage-governance summary, and a per-class table.
func snapshot(client *http.Client, server string, out io.Writer) error {
	global, err := fetch(client, server+deltahttp.StatsPath)
	if err != nil {
		return err
	}
	out.Write(global)
	if err := printPError(client, server, out); err != nil {
		return err
	}

	if body, err := fetch(client, server+deltahttp.StorePath); err == nil {
		var st struct {
			store.Stats
			DeltaCache core.DeltaCacheStats `json:"deltaCache"`
			Graph      core.GraphStats      `json:"graph"`
			Disk       store.TierStats      `json:"disk"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			return fmt.Errorf("parse store snapshot: %w", err)
		}
		budget := "unbudgeted"
		if st.Budget > 0 {
			budget = fmt.Sprintf("%d budget", st.Budget)
		}
		fmt.Fprintf(out, "\nstore: %d resident bytes (%s; base %d, cand %d, index %d, delta %d, edge %d), %d/%d classes resident, %d prunes, %d evictions\n",
			st.Resident.Total, budget,
			st.Resident.BaseBytes, st.Resident.CandBytes, st.Resident.IndexBytes, st.Resident.DeltaBytes, st.Resident.EdgeBytes,
			st.ResidentClasses, st.Classes, st.Prunes, st.Evictions)
		if dc := st.DeltaCache; dc.Enabled {
			fmt.Fprintf(out, "delta-cache: %d hits, %d misses, %d coalesced, %d entries (%d bytes), %d invalidations\n",
				dc.Hits, dc.Misses, dc.Coalesced, dc.Entries, dc.Bytes, dc.Invalidations)
		}
		if dc := st.DeltaCache; dc.EncodedBytes > 0 {
			fmt.Fprintf(out, "encode: %d document bytes, %.1f%% replayed from hints (%d hint bytes)\n",
				dc.EncodedBytes, 100*float64(dc.ReplayedBytes)/float64(dc.EncodedBytes), dc.HintBytes)
		}
		if g := st.Graph; g.Depth > 1 || g.Edges > 0 || g.Direct+g.Composed+g.FallbackFull > 0 {
			fmt.Fprintf(out, "graph: depth %d, %d edges (%d bytes); served %d direct, %d composed, %d fallback-full\n",
				g.Depth, g.Edges, g.EdgeBytes, g.Direct, g.Composed, g.FallbackFull)
		}
		if d := st.Disk; d.Enabled {
			diskBudget := "unbounded"
			if d.BudgetBytes > 0 {
				diskBudget = fmt.Sprintf("%d budget", d.BudgetBytes)
			}
			fmt.Fprintf(out, "disk: %d bytes in %d segments (%s; %d live), %d spilled classes, %d spills, %d fault-ins, %d drops, %d errors\n",
				d.DiskBytes, d.Segments, diskBudget, d.LiveBytes,
				d.SpilledClasses, d.Spills, d.FaultIns, d.Drops, d.Errors)
		}
		for i := max(0, len(st.Log)-3); i < len(st.Log); i++ {
			r := st.Log[i]
			fmt.Fprintf(out, "  %s %s freed %d bytes at %s\n",
				r.Kind, r.Key, r.FreedBytes, r.At.Format(time.RFC3339))
		}
	}

	// Cluster section — only when the server is part of a tier (standalone
	// servers 404 the endpoint, which is the feature-detect).
	if body, err := fetch(client, server+deltahttp.ClusterPath); err == nil {
		var cs cluster.Status
		if err := json.Unmarshal(body, &cs); err != nil {
			return fmt.Errorf("parse cluster snapshot: %w", err)
		}
		mode := "forward"
		if cs.Redirect {
			mode = "redirect"
		}
		fmt.Fprintf(out, "\ncluster: node %s of %d (%s mode), owns %.0f%% of classes\n",
			cs.Self, len(cs.Peers), mode, 100*cs.OwnedShare)
		fmt.Fprintf(out, "cluster: %d owned, %d forwarded, %d redirected, %d hop-guard, %d forward errors, %d remote bases\n",
			cs.OwnedRequests, cs.Forwarded, cs.Redirected, cs.HopGuard, cs.ForwardErrors, cs.RemoteBase)
		for _, p := range cs.Peers {
			state := "alive"
			if !p.Alive {
				state = fmt.Sprintf("DEAD (%d fails: %s)", p.Fails, p.LastError)
			}
			self := " "
			if p.Self {
				self = "*"
			}
			fmt.Fprintf(out, "  %s %s %s %s\n", self, p.ID, p.URL, state)
		}
	}

	body, err := fetch(client, server+deltahttp.StatsPath+"?class=*")
	if err != nil {
		return err
	}
	var rows []core.ClassStats
	if err := json.Unmarshal(body, &rows); err != nil {
		return fmt.Errorf("parse per-class stats: %w", err)
	}
	if len(rows) == 0 {
		fmt.Fprintln(out, "\nno classes yet")
		return nil
	}
	tw := tabwriter.NewWriter(out, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "\nCLASS\tREQS\tHITS\tMISSES\tBYTES-IN\tSHIPPED\tSAVED%\tBASE\tAGE\tANON\tRESIDENT\tEV/RW/FI\tGRAPH\tD/C/F")
	for _, r := range rows {
		// Completed anonymization processes are discarded by the engine,
		// so inactive classes show "-" rather than guessing done vs off.
		anon := "-"
		if r.AnonActive {
			anon = fmt.Sprintf("%d/%d", r.AnonDone, r.AnonNeeded)
		}
		base := fmt.Sprintf("v%d", r.BaseVersion)
		if r.Evicted {
			// A spilled class is evicted from RAM but one fault-in away
			// from serving deltas again; a plainly evicted one must
			// re-warm from traffic.
			if r.Spilled {
				base = "spilled"
			} else {
				base = "evicted"
			}
		}
		// GRAPH is "<versions>v/<edges>e"; D/C/F splits delta serving into
		// direct, composed-chain, and aged-out full-fallback responses.
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%.1f\t%s\t%s\t%s\t%d\t%d/%d/%d\t%dv/%de\t%d/%d/%d\n",
			r.ID, r.Requests, r.DeltaHits, r.DeltaMisses,
			r.BytesIn, r.BytesShipped, 100*r.Savings(),
			base, r.BaseAge.Round(time.Second), anon,
			r.ResidentBytes, r.Evictions, r.Rewarms, r.FaultIns,
			r.GraphVersions, r.GraphEdges,
			r.GraphDirect, r.GraphComposed, r.GraphFallback)
	}
	return tw.Flush()
}

// printPError prints one line splitting the server's responses by reason
// (cbde_responses_total): the share that went out full — the paper's
// P_error — and how many fulls each reason caused.
func printPError(client *http.Client, server string, out io.Writer) error {
	body, err := fetch(client, server+deltahttp.MetricsPath)
	if err != nil {
		return err
	}
	exp, err := metrics.ParseExposition(bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("parse exposition: %w", err)
	}
	var total, full float64
	var fulls []string
	for _, s := range exp.Samples {
		if s.Name != "cbde_responses_total" {
			continue
		}
		total += s.Value
		if kind, _ := s.Label("kind"); kind == "full" && s.Value > 0 {
			reason, _ := s.Label("reason")
			full += s.Value
			fulls = append(fulls, fmt.Sprintf("%s %.0f", reason, s.Value))
		}
	}
	if total > 0 {
		fmt.Fprintf(out, "\nresponses: %.0f; P_error %.3f = %.0f full [%s]\n",
			total, full/total, full, strings.Join(fulls, ", "))
	}
	return nil
}

// checkMetrics validates the exposition endpoint for CI.
func checkMetrics(client *http.Client, server string, out io.Writer) error {
	resp, err := client.Get(server + deltahttp.MetricsPath)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", deltahttp.MetricsPath, resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); ct != metrics.ExpositionContentType {
		return fmt.Errorf("Content-Type = %q, want %q", ct, metrics.ExpositionContentType)
	}
	exp, err := metrics.ParseExposition(resp.Body)
	if err != nil {
		return fmt.Errorf("exposition does not parse: %w", err)
	}
	var missing []string
	for _, s := range coreSeries {
		if !exp.Series(s) {
			missing = append(missing, s)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("exposition missing core series: %v", missing)
	}
	fmt.Fprintf(out, "ok: %d samples, %d typed families, all %d core series present\n",
		len(exp.Samples), len(exp.Types), len(coreSeries))
	return nil
}
