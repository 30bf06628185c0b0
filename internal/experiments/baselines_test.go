package experiments

import (
	"strings"
	"testing"

	"cbde/internal/basefile"
)

func TestBaselinesOrdering(t *testing.T) {
	rows, err := Baselines(40)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	byScheme := map[string]BaselineRow{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
	}
	full := byScheme["full documents"]
	gz := byScheme["gzip only"]
	hppRow := byScheme["HPP per-page templates"]
	perDoc := byScheme["delta per-page base"]
	class := byScheme["delta one class base"]

	if full.Reduction != 1 {
		t.Errorf("full reduction = %.2f, want 1", full.Reduction)
	}
	// Douglis et al.: HPP gives 2-8x.
	if hppRow.Reduction < 2 {
		t.Errorf("HPP reduction = %.1fx, want >= 2x", hppRow.Reduction)
	}
	// Paper: delta-encoding exploits more redundancy than HPP (at the
	// same per-document granularity).
	if perDoc.AvgTransfer >= hppRow.AvgTransfer {
		t.Errorf("per-doc delta avg %f not below HPP avg %f", perDoc.AvgTransfer, hppRow.AvgTransfer)
	}
	// And far more than gzip alone.
	if perDoc.AvgTransfer*3 >= gz.AvgTransfer {
		t.Errorf("delta avg %f not well below gzip-only %f", perDoc.AvgTransfer, gz.AvgTransfer)
	}
	// The class-based scheme trades slightly larger deltas for a fraction
	// of the server state.
	if class.ServerBytes*4 >= perDoc.ServerBytes {
		t.Errorf("class storage %d not well below per-doc storage %d",
			class.ServerBytes, perDoc.ServerBytes)
	}
	if class.Reduction < 2 {
		t.Errorf("class-based reduction = %.1fx, want >= 2x", class.Reduction)
	}
	if !strings.Contains(FormatBaselines(rows), "HPP") {
		t.Error("FormatBaselines missing rows")
	}
}

func TestAblateChunkSize(t *testing.T) {
	rows, err := AblateChunkSize([]int{4, 16, 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Larger chunks must not produce smaller deltas.
	for i := 1; i < len(rows); i++ {
		if rows[i].DeltaBytes < rows[i-1].DeltaBytes/2 {
			t.Errorf("chunk %d delta %d implausibly below chunk %d delta %d",
				rows[i].ChunkSize, rows[i].DeltaBytes, rows[i-1].ChunkSize, rows[i-1].DeltaBytes)
		}
	}
	if rows[0].DeltaBytes >= rows[2].DeltaBytes {
		t.Errorf("4-byte chunks (%d) should beat 64-byte chunks (%d)",
			rows[0].DeltaBytes, rows[2].DeltaBytes)
	}
	if !strings.Contains(FormatChunkSize(rows), "Chunk size") {
		t.Error("FormatChunkSize missing header")
	}
}

func TestAblateProbeBudget(t *testing.T) {
	rows, err := AblateProbeBudget([]int{1, 8})
	if err != nil {
		t.Fatal(err)
	}
	get := func(n int, hints bool) ProbeBudgetRow {
		for _, r := range rows {
			if r.MaxProbes == n && r.UseHints == hints {
				return r
			}
		}
		t.Fatalf("row N=%d hints=%v missing", n, hints)
		return ProbeBudgetRow{}
	}
	// With hints, even a single probe finds the right class: 6 classes.
	if r := get(1, true); r.Classes != 6 {
		t.Errorf("N=1 with hints: %d classes, want 6", r.Classes)
	}
	// Without hints, a budget of 1 fractures departments into more classes
	// than a budget of 8.
	noHints1 := get(1, false)
	noHints8 := get(8, false)
	if noHints1.Classes < noHints8.Classes {
		t.Errorf("probe budget 1 (%d classes) should fracture at least as much as 8 (%d)",
			noHints1.Classes, noHints8.Classes)
	}
	if noHints8.ProbesPerURL < get(8, true).ProbesPerURL {
		t.Errorf("hints should reduce probing: %f vs %f",
			get(8, true).ProbesPerURL, noHints8.ProbesPerURL)
	}
	if !strings.Contains(FormatProbeBudget(rows), "Hints") {
		t.Error("FormatProbeBudget missing header")
	}
}

func TestAblateSelector(t *testing.T) {
	rows := AblateSelector([]float64{0.2}, []int{2, 8})
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.AvgDelta <= 0 {
			t.Errorf("p=%.2f K=%d: no delta measured", r.SampleProb, r.MaxSamples)
		}
	}
	// More samples store more bytes.
	if rows[1].StoredBytes <= rows[0].StoredBytes {
		t.Errorf("K=8 stored %d not above K=2 stored %d", rows[1].StoredBytes, rows[0].StoredBytes)
	}
	if !strings.Contains(FormatSelectorSweep(rows), "Stored bytes") {
		t.Error("FormatSelectorSweep missing header")
	}
}

func TestAblateEviction(t *testing.T) {
	rows := AblateEviction()
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	seen := map[basefile.EvictionPolicy]bool{}
	for _, r := range rows {
		if r.AvgDelta <= 0 {
			t.Errorf("%v: no delta measured", r.Policy)
		}
		seen[r.Policy] = true
	}
	if len(seen) != 3 {
		t.Error("policies missing from the comparison")
	}
	if !strings.Contains(FormatEviction(rows), "worst") {
		t.Error("FormatEviction missing rows")
	}
}

func TestUserLatencyShape(t *testing.T) {
	// The abstract: CBDE "reduces ... the latency perceived by most users
	// by a factor of 10 on average" on low-bandwidth links.
	reports, err := UserLatency(1, testScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("got %d reports", len(reports))
	}
	var modem, high UserLatencyReport
	for _, r := range reports {
		switch r.Path {
		case "modem-56k":
			modem = r
		case "high-bw":
			high = r
		}
	}
	if modem.MeanRatio < 7 || modem.MeanRatio > 20 {
		t.Errorf("modem mean speedup = %.1f, abstract says ~10", modem.MeanRatio)
	}
	if modem.FracAtLeast5x < 0.8 {
		t.Errorf("only %.0f%% of requests sped up >=5x; abstract says most users", modem.FracAtLeast5x*100)
	}
	if high.MeanRatio <= 1.5 {
		t.Errorf("high-bandwidth speedup = %.1f, want clearly above 1", high.MeanRatio)
	}
	if modem.MeanCBDEMs >= modem.MeanDirectMs {
		t.Error("CBDE latency not below direct latency")
	}
	if !strings.Contains(FormatUserLatency(reports), "modem-56k") {
		t.Error("FormatUserLatency missing rows")
	}
	if _, err := UserLatency(9, 1); err == nil {
		t.Error("out-of-range site accepted")
	}
}

func TestAblateRebaseTimeout(t *testing.T) {
	rows, err := AblateRebaseTimeout(nil, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Longer timeouts can only reduce (or hold) the group-rebase count.
	for i := 1; i < len(rows); i++ {
		if rows[i].GroupRebases > rows[i-1].GroupRebases {
			t.Errorf("timeout %v has more group-rebases (%d) than %v (%d)",
				rows[i].Timeout, rows[i].GroupRebases, rows[i-1].Timeout, rows[i-1].GroupRebases)
		}
	}
	// Zero timeout rebases freely; clients then re-download bases more.
	if rows[0].GroupRebases > 0 && rows[len(rows)-1].GroupRebases >= rows[0].GroupRebases {
		t.Errorf("hour-long timeout did not damp rebases: %d vs %d",
			rows[len(rows)-1].GroupRebases, rows[0].GroupRebases)
	}
	if rows[0].BaseKBClient < rows[len(rows)-1].BaseKBClient {
		t.Errorf("frequent rebases should cost more client base downloads: %.0f vs %.0f",
			rows[0].BaseKBClient, rows[len(rows)-1].BaseKBClient)
	}
	if !strings.Contains(FormatRebase(rows), "Timeout") {
		t.Error("FormatRebase missing header")
	}
}

func TestCompareFormats(t *testing.T) {
	rows, err := CompareFormats()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.VdeltaBytes <= 0 || r.VCDIFFBytes <= 0 {
			t.Errorf("%s: empty encodings: %+v", r.Label, r)
		}
		// Both formats must stay far below the document for temporal pairs.
		if r.Label != "other-item" && r.VCDIFFBytes > r.DocBytes/4 {
			t.Errorf("%s: vcdiff %d not small vs doc %d", r.Label, r.VCDIFFBytes, r.DocBytes)
		}
		// The two formats encode the same instructions; sizes must be in
		// the same ballpark (within 2x either way).
		if r.VCDIFFBytes > r.VdeltaBytes*2 || r.VdeltaBytes > r.VCDIFFBytes*2 {
			t.Errorf("%s: formats diverge: vdelta %d vs vcdiff %d", r.Label, r.VdeltaBytes, r.VCDIFFBytes)
		}
		// What the engine ships is never longer than the raw delta.
		if r.VdeltaWire <= 0 || r.VdeltaWire > r.VdeltaBytes {
			t.Errorf("%s: vdelta wire payload %d for a %d-byte delta", r.Label, r.VdeltaWire, r.VdeltaBytes)
		}
	}
	if !strings.Contains(FormatFormats(rows), "vcdiff+gz") {
		t.Error("FormatFormats missing header")
	}
}
