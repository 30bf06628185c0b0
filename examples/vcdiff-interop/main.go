// VCDIFF interop example: a standards-speaking client.
//
// The paper's reference [12] is the VCDIFF internet-draft (later RFC 3284),
// the standardization of the Vdelta lineage. This example runs the usual
// origin + delta-server chain and has a client negotiate RFC 3284 payloads
// via `X-CBDE-Accept: vcdiff`, then inspects the wire bytes to show they
// really are VCDIFF (magic 0xD6 0xC3 0xC4) and reconstructs the document
// with the standalone RFC 3284 decoder.
//
//	go run ./examples/vcdiff-interop
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"

	"cbde"
	"cbde/internal/anonymize"
	"cbde/internal/deltahttp"
	"cbde/internal/gzipx"
	"cbde/internal/origin"
	"cbde/internal/vcdiff"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	site := origin.NewSite(origin.Config{
		Host:          "news.example.com",
		Depts:         []origin.Dept{{Name: "world", Items: 8}},
		TemplateBytes: 20000,
		ItemBytes:     2000,
		ChurnBytes:    800,
		Seed:          1234,
	})
	originSrv := httptest.NewServer(site.Handler())
	defer originSrv.Close()

	eng, err := cbde.NewEngine(cbde.Config{Anon: anonymize.Config{M: 1, N: 3}})
	if err != nil {
		return err
	}
	ds, err := cbde.NewServer(originSrv.URL, eng, cbde.WithPublicHost("news.example.com"))
	if err != nil {
		return err
	}
	front := httptest.NewServer(ds)
	defer front.Close()

	// Warm the class (anonymization needs distinct users).
	var classID string
	var version int
	for i := 0; i < 6; i++ {
		req, _ := http.NewRequest(http.MethodGet, front.URL+"/world/0", nil)
		req.Header.Set(deltahttp.HeaderUser, fmt.Sprintf("reader-%d", i))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		classID = resp.Header.Get(deltahttp.HeaderClass)
		version, _ = strconv.Atoi(resp.Header.Get(deltahttp.HeaderLatestVersion))
	}
	fmt.Printf("class %q warmed, base-file v%d distributed\n", classID, version)

	// Fetch the base, then request the document as an RFC 3284 client.
	resp, err := http.Get(front.URL + deltahttp.BasePath(classID, version))
	if err != nil {
		return err
	}
	base, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	site.Advance(2) // headlines rotate

	req, _ := http.NewRequest(http.MethodGet, front.URL+"/world/0", nil)
	req.Header.Set(deltahttp.HeaderCapable, "1")
	req.Header.Set(deltahttp.HeaderUser, "standards-fan")
	req.Header.Set(deltahttp.HeaderAccept, deltahttp.EncodingVCDIFF)
	req.Header.Set(deltahttp.HeaderHave, deltahttp.FormatHave([]deltahttp.Held{{ClassID: classID, Version: version}}))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	payload, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	enc := resp.Header.Get(deltahttp.HeaderEncoding)
	fmt.Printf("server answered with encoding %q, %d bytes\n", enc, len(payload))

	// Undo gzip if the server compressed, then check the RFC 3284 magic.
	raw := payload
	if enc == deltahttp.EncodingVCDIFFGzip {
		if raw, err = gzipx.Decompress(payload); err != nil {
			return err
		}
	}
	fmt.Printf("wire magic: % x (RFC 3284 wants d6 c3 c4 00)\n", raw[:4])

	// Reconstruct with the standalone RFC 3284 decoder — no CBDE internals.
	doc, err := vcdiff.Decode(base, raw)
	if err != nil {
		return err
	}
	want, err := site.Render("world", 0, "", site.Tick())
	if err != nil {
		return err
	}
	fmt.Printf("decoded %d bytes; byte-identical to the origin render: %v\n",
		len(doc), bytes.Equal(doc, want))
	fmt.Printf("transfer: %d-byte document shipped as a %d-byte standard delta\n",
		len(want), len(payload))
	return nil
}
