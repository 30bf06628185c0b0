// Package deltaclient implements a delta-capable HTTP client: the stand-in
// for the browser-side of the architecture (Section VI-C), where the
// browser's cache stores base-files and JavaScript (or a plug-in) combines
// deltas with locally stored base-files.
//
// The client remembers, per class, the base-file it holds; advertises it on
// every request; reconstructs documents from delta responses; and fetches
// (re-fetches after rebases) base-files from the server's cachable
// distribution endpoint — optionally through a proxy-cache.
package deltaclient

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"cbde/internal/bodybuf"
	"cbde/internal/deltahttp"
	"cbde/internal/gzipx"
	"cbde/internal/vdelta"
)

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient replaces the underlying HTTP client (e.g. to route through
// a proxy-cache).
func WithHTTPClient(c *http.Client) Option {
	return func(cl *Client) { cl.http = c }
}

// WithUser sets the client's user identity, sent on every request.
func WithUser(user string) Option {
	return func(cl *Client) { cl.user = user }
}

// WithMaxBaseBytes bounds the client's base-file cache (a browser cache is
// finite). When an insertion would exceed the bound, the least recently
// used base-files are evicted. Zero (the default) means unbounded.
func WithMaxBaseBytes(n int64) Option {
	return func(cl *Client) { cl.maxBaseBytes = n }
}

// WithRefreshLag installs a hook that picks which base-file version to
// fetch when the server announces a newer one than the client holds. The
// hook receives the announced latest version and returns the version to
// fetch; results are clamped to [1, latest]. It models a lagging client
// population — browsers that refresh their cached base-file some versions
// behind the server's current one — which is what the server's version
// graph exists to serve. If the lagged version has aged out of the
// server's retention window the client falls back to fetching the latest.
func WithRefreshLag(f func(latest int) int) Option {
	return func(cl *Client) { cl.refreshLag = f }
}

// heldBase is a base-file in the client's cache.
type heldBase struct {
	version  int
	data     []byte
	lastUsed int64 // monotone use counter for LRU eviction
}

// Stats counts the client's transfer volumes — the client side of the
// bandwidth story.
type Stats struct {
	Requests       int   // document requests issued
	DeltaResponses int   // responses that arrived as deltas (incl. chains)
	ChainResponses int   // delta responses that arrived as composed chains
	FullResponses  int   // responses that arrived as full documents
	PayloadBytes   int64 // body bytes received for documents (deltas + fulls)
	BaseFetches    int   // base-file downloads
	BaseBytes      int64 // base-file bytes downloaded
	BaseEvictions  int   // base-files evicted from the bounded cache
}

// maxBody bounds every body the client reads and every delta it inflates:
// nothing larger than the decoder would reconstruct is worth buffering. A
// variable only so tests can shrink it.
var maxBody = vdelta.MaxDecodeTarget

// getBuf and putBuf check bodybuf's pooled buffers out and in; variables so
// tests can see which buffers a Get still holds.
var getBuf, putBuf = bodybuf.Get, (*bodybuf.Buf).Release

// maxAdvertisedBases bounds the HeaderHave size; clients rarely hold more
// than a handful of class base-files per server.
const maxAdvertisedBases = 32

// Client is a delta-capable HTTP client. It is safe for concurrent use.
type Client struct {
	serverURL  string
	http       *http.Client
	user       string
	refreshLag func(latest int) int

	maxBaseBytes int64

	mu     sync.Mutex
	bases  map[string]heldBase // class ID -> held base
	useSeq int64               // monotone counter for LRU bookkeeping
	stats  Stats
}

// New returns a Client that requests documents from serverURL (scheme and
// host, e.g. "http://127.0.0.1:8080").
func New(serverURL string, opts ...Option) *Client {
	c := &Client{
		serverURL: serverURL,
		http:      &http.Client{Timeout: 30 * time.Second},
		bases:     make(map[string]heldBase),
	}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Stats returns a snapshot of the client's transfer counters.
func (c *Client) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// HeldVersion reports the base-file version the client holds for a class
// (0 if none).
func (c *Client) HeldVersion(classID string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bases[classID].version
}

// Get requests the document at path (e.g. "/laptops/3") and returns the
// reconstructed document.
func (c *Client) Get(path string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.serverURL+path, nil)
	if err != nil {
		return nil, fmt.Errorf("deltaclient: build request: %w", err)
	}
	req.Header.Set(deltahttp.HeaderCapable, "1")
	if c.user != "" {
		req.Header.Set(deltahttp.HeaderUser, c.user)
	}

	// Advertise every held base: the client cannot know which class an
	// unseen URL belongs to, so the server picks the matching one.
	c.mu.Lock()
	held := make([]deltahttp.Held, 0, len(c.bases))
	for id, hb := range c.bases {
		held = append(held, deltahttp.Held{ClassID: id, Version: hb.version})
		if len(held) >= maxAdvertisedBases {
			break
		}
	}
	c.mu.Unlock()
	if len(held) > 0 {
		req.Header.Set(deltahttp.HeaderHave, deltahttp.FormatHave(held))
	}

	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("deltaclient: request %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("deltaclient: %s returned status %d", path, resp.StatusCode)
	}
	gotClass := resp.Header.Get(deltahttp.HeaderClass)
	latest, _ := strconv.Atoi(resp.Header.Get(deltahttp.HeaderLatestVersion))
	doc, err := c.readDocument(resp, gotClass)
	if err != nil {
		return nil, err
	}

	// Refresh the base-file when the server advertises a newer version, so
	// future requests are served as deltas against a fresh base. A
	// refresh-lag hook may pick an older retained version instead.
	if gotClass != "" && latest > 0 && latest > c.HeldVersion(gotClass) {
		target := latest
		if c.refreshLag != nil {
			if t := c.refreshLag(latest); t < target {
				target = t
			}
			if target < 1 {
				target = 1
			}
		}
		if target > c.HeldVersion(gotClass) {
			err := c.FetchBase(gotClass, target)
			if err != nil && target != latest {
				// The lagged version may have aged out of the server's
				// retention window; take the current one rather than leave
				// the client baseless.
				err = c.FetchBase(gotClass, latest)
			}
			if err != nil {
				// Base distribution failing is not fatal for this response:
				// the document is already reconstructed. Surface it anyway
				// so callers notice persistent distribution problems.
				return doc, fmt.Errorf("deltaclient: refresh base for %s: %w", gotClass, err)
			}
		}
	}
	return doc, nil
}

// readDocument returns the document a response carries: a full body is the
// caller's, read into its own slice (one exact allocation when the length is
// stated); a delta or chain, dead once decoded against the held base of
// classID, is read into a pooled buffer that is back in the pool on return.
func (c *Client) readDocument(resp *http.Response, classID string) (doc []byte, err error) {
	enc := resp.Header.Get(deltahttp.HeaderEncoding)
	var body []byte
	if enc != "" {
		buf := getBuf()
		defer putBuf(buf)
		buf.B, err = bodybuf.Read(buf.B, resp.Body, resp.ContentLength, maxBody)
		body = buf.B
	} else {
		body, err = bodybuf.Read(nil, resp.Body, resp.ContentLength, maxBody)
	}
	if err != nil {
		return nil, fmt.Errorf("deltaclient: read response: %w", err)
	}

	c.mu.Lock()
	c.stats.Requests++
	c.stats.PayloadBytes += int64(len(body))
	c.mu.Unlock()

	switch enc {
	case "":
		c.mu.Lock()
		c.stats.FullResponses++
		c.mu.Unlock()
		return body, nil
	case deltahttp.EncodingVdelta, deltahttp.EncodingVdeltaGzip, deltahttp.EncodingVdeltaChain:
		baseVersion, err := strconv.Atoi(resp.Header.Get(deltahttp.HeaderBaseVersion))
		if err != nil {
			return nil, fmt.Errorf("deltaclient: delta response lacks a base version")
		}
		if enc == deltahttp.EncodingVdeltaChain {
			doc, err = c.reconstructChain(classID, baseVersion, body)
		} else {
			doc, err = c.reconstruct(classID, baseVersion, body, enc == deltahttp.EncodingVdeltaGzip)
		}
		if err != nil {
			return nil, err
		}
		c.mu.Lock()
		c.stats.DeltaResponses++
		if enc == deltahttp.EncodingVdeltaChain {
			c.stats.ChainResponses++
		}
		c.mu.Unlock()
		return doc, nil
	}
	return nil, fmt.Errorf("deltaclient: unknown payload encoding %q", enc)
}

// reconstructChain applies a composed chained-delta response: each framed
// segment rewrites the working document one version forward, starting from
// the held base-file and ending at the current document.
func (c *Client) reconstructChain(classID string, version int, payload []byte) ([]byte, error) {
	c.mu.Lock()
	held, ok := c.bases[classID]
	if ok {
		c.useSeq++
		held.lastUsed = c.useSeq
		c.bases[classID] = held
	}
	c.mu.Unlock()
	if !ok || held.version != version {
		return nil, fmt.Errorf("deltaclient: server sent chain against %s v%d which the client does not hold", classID, version)
	}
	segs, err := deltahttp.ParseChain(payload)
	if err != nil {
		return nil, fmt.Errorf("deltaclient: parse delta chain: %w", err)
	}
	scratch := getBuf()
	defer putBuf(scratch)
	cur := held.data
	for i, s := range segs {
		d := s.Payload
		if s.Gzipped {
			// Decode copies what it keeps, so every segment inflates into
			// the same scratch.
			scratch.B, err = gzipx.AppendDecompress(scratch.B[:0], d, maxBody)
			if err != nil {
				return nil, fmt.Errorf("deltaclient: decompress chain segment %d: %w", i, err)
			}
			d = scratch.B
		}
		cur, err = vdelta.Decode(cur, d)
		if err != nil {
			return nil, fmt.Errorf("deltaclient: apply chain segment %d: %w", i, err)
		}
	}
	return cur, nil
}

// reconstruct applies a delta response to the held base-file.
func (c *Client) reconstruct(classID string, version int, payload []byte, gzipped bool) ([]byte, error) {
	c.mu.Lock()
	held, ok := c.bases[classID]
	if ok {
		c.useSeq++
		held.lastUsed = c.useSeq
		c.bases[classID] = held
	}
	c.mu.Unlock()
	if !ok || held.version != version {
		return nil, fmt.Errorf("deltaclient: server sent delta against %s v%d which the client does not hold", classID, version)
	}
	delta := payload
	var err error
	if gzipped {
		scratch := getBuf()
		defer putBuf(scratch)
		scratch.B, err = gzipx.AppendDecompress(scratch.B, payload, maxBody)
		if err != nil {
			return nil, fmt.Errorf("deltaclient: decompress delta: %w", err)
		}
		delta = scratch.B
	}
	doc, err := vdelta.Decode(held.data, delta)
	if err != nil {
		return nil, fmt.Errorf("deltaclient: apply delta: %w", err)
	}
	return doc, nil
}

// FetchBase downloads and stores a class's base-file version from the
// server's cachable distribution endpoint.
func (c *Client) FetchBase(classID string, version int) error {
	req, err := http.NewRequest(http.MethodGet, c.serverURL+deltahttp.BasePath(classID, version), nil)
	if err != nil {
		return fmt.Errorf("deltaclient: build base request: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("deltaclient: fetch base: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("deltaclient: base fetch returned status %d", resp.StatusCode)
	}
	data, err := bodybuf.Read(nil, resp.Body, resp.ContentLength, maxBody)
	if err != nil {
		return fmt.Errorf("deltaclient: read base: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.bases[classID]; !ok || version > cur.version {
		c.useSeq++
		c.bases[classID] = heldBase{version: version, data: data, lastUsed: c.useSeq}
		c.evictLocked()
	}
	c.stats.BaseFetches++
	c.stats.BaseBytes += int64(len(data))
	return nil
}

// evictLocked drops least-recently-used base-files until the cache fits
// maxBaseBytes. Callers hold c.mu.
func (c *Client) evictLocked() {
	if c.maxBaseBytes <= 0 {
		return
	}
	total := int64(0)
	for _, hb := range c.bases {
		total += int64(len(hb.data))
	}
	for total > c.maxBaseBytes && len(c.bases) > 1 {
		oldestID := ""
		oldestUse := int64(0)
		for id, hb := range c.bases {
			if oldestID == "" || hb.lastUsed < oldestUse {
				oldestID, oldestUse = id, hb.lastUsed
			}
		}
		total -= int64(len(c.bases[oldestID].data))
		delete(c.bases, oldestID)
		c.stats.BaseEvictions++
	}
}

// Forget drops all held base-files (a cold browser cache).
func (c *Client) Forget() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bases = make(map[string]heldBase)
}
