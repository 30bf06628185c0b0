// Trace mode: fetch the flight-recorder ring from every node of a tier,
// join records by trace ID, and print per-hop / per-stage latency
// breakdowns — the operator's view of one request's walk across nodes.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"cbde/internal/deltahttp"
)

// traceFilter carries the trace-mode flags.
type traceFilter struct {
	class   string
	minMS   float64
	outcome string
	limit   int
}

// traceRec mirrors one flightrec NDJSON record.
type traceRec struct {
	Seq           uint64      `json:"seq"`
	Trace         string      `json:"trace"`
	Origin        string      `json:"origin"`
	Hop           int         `json:"hop"`
	Node          string      `json:"node"`
	Class         string      `json:"class"`
	Outcome       string      `json:"outcome"`
	Reason        string      `json:"reason"`
	StartUnixNano int64       `json:"startUnixNano"`
	TotalUs       int64       `json:"totalUs"`
	DocBytes      int64       `json:"docBytes"`
	WireBytes     int64       `json:"wireBytes"`
	Sampled       bool        `json:"sampled"`
	Reasons       []string    `json:"reasons"`
	Spans         []traceSpan `json:"spans"`
}

type traceSpan struct {
	Stage string `json:"stage"`
	Us    int64  `json:"us"`
	Bytes int64  `json:"bytes"`
}

// traceJoin fetches every node's ring, groups records by trace ID, and
// prints the joined traces newest-first.
func traceJoin(client *http.Client, server, peers string, f traceFilter, out io.Writer) error {
	nodes, err := traceNodes(server, peers)
	if err != nil {
		return err
	}

	q := url.Values{}
	if f.class != "" {
		q.Set("class", f.class)
	}
	if f.minMS > 0 {
		q.Set("min-ms", fmt.Sprintf("%g", f.minMS))
	}
	if f.outcome != "" {
		q.Set("outcome", f.outcome)
	}
	query := ""
	if len(q) > 0 {
		query = "?" + q.Encode()
	}

	byTrace := make(map[string][]traceRec)
	var order []string // trace IDs by first (newest) appearance
	fetched := 0
	for _, n := range nodes {
		recs, err := fetchTrace(client, n+deltahttp.TracePath+query)
		if err != nil {
			// A dead node must not hide the live ones' records; say so and
			// keep joining.
			fmt.Fprintf(out, "# node %s unreachable: %v\n", n, err)
			continue
		}
		fetched++
		for _, r := range recs {
			if r.Trace == "" {
				continue
			}
			if _, seen := byTrace[r.Trace]; !seen {
				order = append(order, r.Trace)
			}
			byTrace[r.Trace] = append(byTrace[r.Trace], r)
		}
	}
	if fetched == 0 {
		return fmt.Errorf("no node served %s", deltahttp.TracePath)
	}

	// Newest first across nodes: order by the trace's earliest start time.
	sort.SliceStable(order, func(i, j int) bool {
		return traceStart(byTrace[order[i]]) > traceStart(byTrace[order[j]])
	})

	printed := 0
	for _, id := range order {
		if f.limit > 0 && printed >= f.limit {
			break
		}
		printTrace(out, id, byTrace[id])
		printed++
	}
	fmt.Fprintf(out, "%d traces across %d nodes\n", printed, fetched)
	return nil
}

// traceNodes resolves the node URL list: -peers entries (id=url or bare
// URL), or the single -server.
func traceNodes(server, peers string) ([]string, error) {
	if peers == "" {
		return []string{strings.TrimSuffix(server, "/")}, nil
	}
	var nodes []string
	for _, entry := range strings.Split(peers, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		if _, u, found := strings.Cut(entry, "="); found {
			entry = u
		}
		nodes = append(nodes, strings.TrimSuffix(entry, "/"))
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("-peers %q contains no nodes", peers)
	}
	return nodes, nil
}

// fetchTrace reads one node's NDJSON ring.
func fetchTrace(client *http.Client, u string) ([]traceRec, error) {
	resp, err := client.Get(u)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("GET %s: %s: %s", u, resp.Status, strings.TrimSpace(string(body)))
	}
	var recs []traceRec
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r traceRec
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			return nil, fmt.Errorf("bad trace record %q: %w", line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

func traceStart(recs []traceRec) int64 {
	start := int64(0)
	for _, r := range recs {
		if start == 0 || r.StartUnixNano < start {
			start = r.StartUnixNano
		}
	}
	return start
}

// printTrace renders one joined trace: a grep-friendly summary line, then
// one indented line per hop in hop order, with stage spans on sampled hops.
func printTrace(out io.Writer, id string, recs []traceRec) {
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Hop < recs[j].Hop })
	nodes := make([]string, 0, len(recs))
	seen := make(map[string]bool)
	var total int64
	class, origin := "", ""
	for _, r := range recs {
		if !seen[r.Node] {
			seen[r.Node] = true
			nodes = append(nodes, r.Node)
		}
		if r.TotalUs > total {
			total = r.TotalUs // the slowest hop bounds the request
		}
		if r.Class != "" {
			class = r.Class
		}
		if r.Origin != "" {
			origin = r.Origin
		}
	}
	fmt.Fprintf(out, "trace %s nodes=%d [%s] origin=%s total=%s",
		id, len(nodes), strings.Join(nodes, ","), origin, time.Duration(total)*time.Microsecond)
	if class != "" {
		fmt.Fprintf(out, " class=%s", class)
	}
	fmt.Fprintln(out)
	for _, r := range recs {
		fmt.Fprintf(out, "  hop %d %-8s %-11s %8s doc=%dB wire=%dB",
			r.Hop, r.Node, r.Outcome, time.Duration(r.TotalUs)*time.Microsecond, r.DocBytes, r.WireBytes)
		if r.Reason != "" {
			fmt.Fprintf(out, " reason=%s", r.Reason)
		}
		if len(r.Reasons) > 0 {
			fmt.Fprintf(out, " [%s]", strings.Join(r.Reasons, ","))
		}
		fmt.Fprintln(out)
		if r.Sampled && len(r.Spans) > 0 {
			parts := make([]string, 0, len(r.Spans))
			for _, sp := range r.Spans {
				p := fmt.Sprintf("%s %s", sp.Stage, time.Duration(sp.Us)*time.Microsecond)
				if sp.Bytes != 0 {
					p += fmt.Sprintf("[%dB]", sp.Bytes)
				}
				parts = append(parts, p)
			}
			fmt.Fprintf(out, "       stages: %s\n", strings.Join(parts, " · "))
		}
	}
}
