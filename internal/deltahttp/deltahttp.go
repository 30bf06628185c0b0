// Package deltahttp defines the wire protocol between the delta-server and
// delta-capable clients (Section VI-C, Figure 2).
//
// The scheme is transparent: clients that do not send HeaderCapable receive
// ordinary full responses; proxy-caches see base-files as plain cachable
// HTTP objects; web-servers see ordinary requests. Delta-capable clients
// advertise the base-file they hold and receive either a delta against it
// or a full response that names the class and base version to fetch.
package deltahttp

import (
	"fmt"
	"net/url"
	"strconv"
	"strings"
)

// Request headers sent by delta-capable clients.
const (
	// HeaderCapable marks the client as delta-capable ("1").
	HeaderCapable = "X-CBDE-Capable"
	// HeaderHave lists every base-file the client holds for this server,
	// as comma-separated "<escaped-class>:<version>" pairs. A client
	// cannot know which class an unseen URL belongs to, so it advertises
	// all of them; the server picks the matching one.
	HeaderHave = "X-CBDE-Have"
	// HeaderUser carries the user identity (the cookie stand-in).
	HeaderUser = "X-CBDE-User"
	// HeaderAccept lists the delta encodings the client can decode
	// (comma-separated HeaderEncoding values). Absent means vdelta; one
	// that names no vdelta encoding gets plain documents (AcceptsVdelta).
	HeaderAccept = "X-CBDE-Accept"
)

// Response headers set by the delta-server.
const (
	// HeaderClass names the document's class.
	HeaderClass = "X-CBDE-Class"
	// HeaderBaseVersion is the base-file version a delta was encoded
	// against.
	HeaderBaseVersion = "X-CBDE-Base-Version"
	// HeaderLatestVersion is the newest distributable base-file version;
	// clients holding older versions should refresh from the base path.
	HeaderLatestVersion = "X-CBDE-Latest-Version"
	// HeaderEncoding describes the payload encoding of a delta response.
	HeaderEncoding = "X-CBDE-Encoding"
	// HeaderChainLength is the number of segments in an EncodingVdeltaChain
	// payload (informational; the framing is self-describing).
	HeaderChainLength = "X-CBDE-Chain-Length"
)

// Cluster headers.
const (
	// HeaderForwarded carries the node ID of the peer that forwarded a
	// request to this node — the one-hop guard. A request already bearing
	// it is never forwarded again, regardless of ownership, which bounds
	// every request to at most one intra-tier hop even when peers briefly
	// disagree about membership.
	HeaderForwarded = "X-CBDE-Forwarded"
	// HeaderTrace carries the distributed trace context —
	// "<32-hex trace ID>;o=<origin node>;h=<hop>" — minted by the first
	// node a request reaches and propagated through forwards, redirects,
	// and peer base fetches so every node's flight-recorder entries for one
	// request join on the same trace ID. Also echoed on document responses
	// so clients (and cbdestat) learn the ID to look up.
	HeaderTrace = "X-CBDE-Trace"
)

// HeaderEncoding values.
const (
	// EncodingVdelta is a raw vdelta instruction stream.
	EncodingVdelta = "vdelta"
	// EncodingVdeltaGzip is a gzip-compressed vdelta stream.
	EncodingVdeltaGzip = "vdelta+gzip"
	// EncodingVdeltaChain is a framed sequence of vdelta deltas (see
	// AppendChain) the client applies in order: segment 1 rewrites the held
	// base to the next retained version, and so on up the class's version
	// graph; the final segment rewrites the newest base into the document.
	EncodingVdeltaChain = "vdelta-chain"
)

// AcceptsVdelta reports whether a client sending the HeaderAccept value
// accept can decode the server's payloads: an absent (empty) header means
// vdelta, and otherwise some comma-separated token must name a vdelta
// encoding. A client that can decode none of them — one speaking another
// delta format — must be served exactly like a client without
// HeaderCapable, so it never receives bytes it cannot decode.
func AcceptsVdelta(accept string) bool {
	if accept == "" {
		return true
	}
	for _, part := range strings.Split(accept, ",") {
		switch strings.TrimSpace(part) {
		case EncodingVdelta, EncodingVdeltaGzip, EncodingVdeltaChain:
			return true
		}
	}
	return false
}

// Server-side paths.
const (
	// BasePathPrefix prefixes the cachable base-file distribution
	// endpoint: GET /_cbde/base/<escaped-class>/<version>.
	BasePathPrefix = "/_cbde/base/"
	// StatsPath serves the delta-server's stats snapshot: a plain-text
	// counter dump by default, or per-class JSON rows with ?class=<id>
	// (?class=* for every class).
	StatsPath = "/_cbde/stats"
	// MetricsPath serves the registry as Prometheus text exposition
	// (version 0.0.4), the endpoint a real scraper points at.
	MetricsPath = "/_cbde/metrics"
	// StorePath serves the storage-governance snapshot as JSON: byte
	// budget, resident bytes by kind, resident versus tracked classes,
	// prune/evict counters, and the recent eviction log.
	StorePath = "/_cbde/store"
	// HealthPath answers 200 while the server is able to take traffic;
	// the cluster prober polls it to drive failover.
	HealthPath = "/_cbde/health"
	// ClusterPath serves the node's cluster view as JSON: membership with
	// liveness, owned-class share, and forward/redirect counters. 404 when
	// the server runs standalone.
	ClusterPath = "/_cbde/cluster"
	// TracePath serves the node's flight-recorder ring as NDJSON, newest
	// first: one compact record per recent request, with full per-stage
	// span detail on tail-sampled outliers. Filterable with ?class=,
	// ?min-ms=, ?outcome=, ?trace=. 404 when the recorder is disabled.
	TracePath = "/_cbde/trace"
)

// Held is one (class, version) pair a client advertises.
type Held struct {
	ClassID string
	Version int
}

// FormatHave renders held base-files as a HeaderHave value.
func FormatHave(held []Held) string {
	parts := make([]string, 0, len(held))
	for _, h := range held {
		if h.ClassID == "" || h.Version <= 0 {
			continue
		}
		parts = append(parts, url.QueryEscape(h.ClassID)+":"+strconv.Itoa(h.Version))
	}
	return strings.Join(parts, ",")
}

// ParseHave parses a HeaderHave value. Malformed entries are skipped: a
// client advertising garbage degrades to full responses, never to an error.
func ParseHave(value string) []Held {
	if value == "" {
		return nil
	}
	var out []Held
	for _, part := range strings.Split(value, ",") {
		part = strings.TrimSpace(part)
		colon := strings.LastIndexByte(part, ':')
		if colon <= 0 {
			continue
		}
		id, err := url.QueryUnescape(part[:colon])
		if err != nil {
			continue
		}
		v, err := strconv.Atoi(part[colon+1:])
		if err != nil || v <= 0 {
			continue
		}
		out = append(out, Held{ClassID: id, Version: v})
	}
	return out
}

// BasePath returns the distribution path for a class's base-file version.
func BasePath(classID string, version int) string {
	return BasePathPrefix + url.PathEscape(classID) + "/" + strconv.Itoa(version)
}

// ParseBasePath extracts (classID, version) from a base distribution path.
func ParseBasePath(path string) (classID string, version int, err error) {
	rest, ok := strings.CutPrefix(path, BasePathPrefix)
	if !ok {
		return "", 0, fmt.Errorf("deltahttp: %q is not a base path", path)
	}
	slash := strings.LastIndexByte(rest, '/')
	if slash < 0 {
		return "", 0, fmt.Errorf("deltahttp: base path %q lacks a version", path)
	}
	id, err := url.PathUnescape(rest[:slash])
	if err != nil {
		return "", 0, fmt.Errorf("deltahttp: unescape class in %q: %w", path, err)
	}
	v, err := strconv.Atoi(rest[slash+1:])
	if err != nil || v <= 0 {
		return "", 0, fmt.Errorf("deltahttp: bad version in %q", path)
	}
	return id, v, nil
}
