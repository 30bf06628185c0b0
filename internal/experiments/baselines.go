package experiments

import (
	"fmt"
	"strings"

	"cbde/internal/gzipx"
	"cbde/internal/hpp"
	"cbde/internal/origin"
	"cbde/internal/vcdiff"
	"cbde/internal/vdelta"
)

// BaselineRow compares per-request transfer sizes for one scheme over the
// same request stream.
type BaselineRow struct {
	Scheme      string
	AvgTransfer float64 // bytes per request on the wire
	Reduction   float64 // direct/transfer
	Fallbacks   int     // full transfers (template misses etc.)
	ServerBytes int     // server-side state (templates or base-files)
}

// Baselines compares, over one class's request stream, the per-request
// transfer of: full documents (no scheme), gzip alone, HPP macro-
// preprocessing (Douglis et al. [6]), and delta-encoding with gzip — the
// related-work comparison of Section I. The paper: HPP gets 2-8x, but
// "delta-encoding exploits more redundancy than this scheme".
func Baselines(requests int) ([]BaselineRow, error) {
	if requests <= 0 {
		requests = 60
	}
	site := origin.NewSite(origin.Config{
		Host:          "www.base.com",
		Depts:         []origin.Dept{{Name: "news", Items: 6}},
		TemplateBytes: 30000,
		ItemBytes:     3000,
		ChurnBytes:    1200,
		Seed:          808,
	})

	// HPP preprocesses each page: one template per document. Classless
	// delta-encoding likewise keeps one base-file per document; the
	// class-based scheme shares a single base-file across every page —
	// the storage contrast the paper draws.
	coder := vdelta.NewCoder()
	templates := make([]*hpp.Template, 6)
	perDocIdx := make([]*vdelta.Index, 6)
	hppStorage, perDocStorage := 0, 0
	var classBase []byte
	for item := 0; item < 6; item++ {
		var samples [][]byte
		for i := 0; i < 5; i++ {
			doc, err := site.Render("news", item, "", i)
			if err != nil {
				return nil, err
			}
			samples = append(samples, doc)
		}
		tpl, err := hpp.Build(samples)
		if err != nil {
			return nil, err
		}
		templates[item] = tpl
		hppStorage += tpl.StaticBytes()
		last := samples[len(samples)-1]
		perDocIdx[item] = coder.NewIndex(last)
		perDocStorage += len(last)
		if item == 0 {
			classBase = last
		}
	}
	classIdx := coder.NewIndex(classBase)

	var direct, gzOnly, hppBytes, perDocBytes, classBytes int
	hppFallbacks := 0
	for i := 0; i < requests; i++ {
		item := i % 6
		doc, err := site.Render("news", item, "", 10+i)
		if err != nil {
			return nil, err
		}
		direct += len(doc)
		gzOnly += len(gzipx.Compress(doc))

		if b, err := templates[item].Bind(doc); err == nil {
			hppBytes += b.WireSize()
		} else {
			hppBytes += len(doc)
			hppFallbacks++
		}

		d, err := coder.EncodeIndexed(perDocIdx[item], doc)
		if err != nil {
			return nil, err
		}
		perDocBytes += len(gzipx.Compress(d))

		d, err = coder.EncodeIndexed(classIdx, doc)
		if err != nil {
			return nil, err
		}
		classBytes += len(gzipx.Compress(d))
	}

	n := float64(requests)
	mk := func(scheme string, total, fallbacks, storage int) BaselineRow {
		row := BaselineRow{
			Scheme:      scheme,
			AvgTransfer: float64(total) / n,
			Fallbacks:   fallbacks,
			ServerBytes: storage,
		}
		if total > 0 {
			row.Reduction = float64(direct) / float64(total)
		}
		return row
	}
	return []BaselineRow{
		mk("full documents", direct, 0, 0),
		mk("gzip only", gzOnly, 0, 0),
		mk("HPP per-page templates", hppBytes, hppFallbacks, hppStorage),
		mk("delta per-page base", perDocBytes, 0, perDocStorage),
		mk("delta one class base", classBytes, 0, len(classBase)),
	}, nil
}

// FormatBaselines renders the baseline comparison.
func FormatBaselines(rows []BaselineRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %14s %11s %10s %13s\n", "Scheme", "Avg bytes/req", "Reduction", "Fallbacks", "Server bytes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-26s %14.0f %10.1fx %10d %13d\n", r.Scheme, r.AvgTransfer, r.Reduction, r.Fallbacks, r.ServerBytes)
	}
	return b.String()
}

// FormatComparisonRow compares the two wire formats on one document pair.
type FormatComparisonRow struct {
	Label       string
	DocBytes    int
	VdeltaBytes int
	VCDIFFBytes int
	VdeltaGzip  int
	VCDIFFGzip  int
	// VdeltaWire is what the engine ships for the vdelta delta: one
	// Huffman block per section (gzipx.AppendDelta), or the raw delta when
	// that is not shorter.
	VdeltaWire int
}

// CompareFormats encodes the same document pairs in the internal vdelta
// format and in RFC 3284 VCDIFF, with and without gzip — quantifying what
// speaking the standard format costs on the wire.
func CompareFormats() ([]FormatComparisonRow, error) {
	site := origin.NewSite(origin.Config{
		Host:          "www.fmt.com",
		Depts:         []origin.Dept{{Name: "news", Items: 4}},
		TemplateBytes: 36000,
		ItemBytes:     3000,
		ChurnBytes:    1200,
		Seed:          909,
	})
	coder := vdelta.NewCoder()

	var rows []FormatComparisonRow
	cases := []struct {
		label      string
		item, tick int
	}{
		{"next-tick", 0, 1},
		{"5-ticks-later", 0, 5},
		{"other-item", 1, 0},
	}
	base, err := site.Render("news", 0, "", 0)
	if err != nil {
		return nil, err
	}
	for _, c := range cases {
		doc, err := site.Render("news", c.item, "", c.tick)
		if err != nil {
			return nil, err
		}
		vd, err := coder.Encode(base, doc)
		if err != nil {
			return nil, err
		}
		vc, err := vcdiff.Encode(base, doc)
		if err != nil {
			return nil, err
		}
		rows = append(rows, FormatComparisonRow{
			Label:       c.label,
			DocBytes:    len(doc),
			VdeltaBytes: len(vd),
			VCDIFFBytes: len(vc),
			VdeltaGzip:  len(gzipx.Compress(vd)),
			VCDIFFGzip:  len(gzipx.Compress(vc)),
			VdeltaWire:  wireSize(vd),
		})
	}
	return rows, nil
}

// wireSize is the size of the payload the engine sends for a vdelta delta.
func wireSize(delta []byte) int {
	s := vdelta.Sections(delta)
	if c := gzipx.AppendDelta(nil, s[:]...); len(c) > 0 {
		return len(c)
	}
	return len(delta)
}

// FormatFormats renders the wire-format comparison.
func FormatFormats(rows []FormatComparisonRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %9s %8s %8s %10s %10s %12s\n",
		"Pair", "Doc", "vdelta", "vcdiff", "vdelta+gz", "vcdiff+gz", "vdelta wire")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %9d %8d %8d %10d %10d %12d\n",
			r.Label, r.DocBytes, r.VdeltaBytes, r.VCDIFFBytes, r.VdeltaGzip, r.VCDIFFGzip, r.VdeltaWire)
	}
	return b.String()
}
