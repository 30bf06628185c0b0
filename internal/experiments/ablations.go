package experiments

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"strings"
	"time"

	"cbde/internal/basefile"
	"cbde/internal/classify"
	"cbde/internal/origin"
	"cbde/internal/urlparts"
	"cbde/internal/vdelta"
)

// ChunkSizeRow is one point of the codec chunk-size ablation.
type ChunkSizeRow struct {
	ChunkSize  int
	DeltaBytes int
	EncodeMs   float64 // median of warm encodes
}

// AblateChunkSize sweeps the Vdelta chunk width over a 50-60 KB document
// pair: small chunks find more matches (smaller deltas, more CPU); the
// light grouping variant's larger chunks trade quality for speed
// (footnote 2).
func AblateChunkSize(sizes []int) ([]ChunkSizeRow, error) {
	if len(sizes) == 0 {
		sizes = []int{2, 4, 8, 16, 32}
	}
	site := origin.NewSite(origin.Config{
		Host:          "www.abl.com",
		Depts:         []origin.Dept{{Name: "catalog", Items: 2}},
		TemplateBytes: 48000,
		ItemBytes:     5000,
		ChurnBytes:    2000,
		Seed:          606,
	})
	base, err := site.Render("catalog", 0, "", 0)
	if err != nil {
		return nil, err
	}
	target, err := site.Render("catalog", 0, "", 3)
	if err != nil {
		return nil, err
	}

	// The first Encode on a fresh Coder builds its pooled index and buffers,
	// so it is run untimed; each rep is then timed alone and the median
	// reported, which one slow rep cannot move.
	const reps = 10
	var rows []ChunkSizeRow
	for _, w := range sizes {
		coder := vdelta.NewCoder(vdelta.WithChunkSize(w))
		delta, err := coder.Encode(base, target)
		if err != nil {
			return nil, err
		}
		ms := make([]float64, reps)
		for i := range ms {
			start := time.Now()
			if _, err := coder.Encode(base, target); err != nil {
				return nil, err
			}
			ms[i] = float64(time.Since(start).Nanoseconds()) / 1e6
		}
		sort.Float64s(ms)
		rows = append(rows, ChunkSizeRow{
			ChunkSize:  w,
			DeltaBytes: len(delta),
			EncodeMs:   (ms[reps/2-1] + ms[reps/2]) / 2,
		})
	}
	return rows, nil
}

// FormatChunkSize renders the chunk-size ablation.
func FormatChunkSize(rows []ChunkSizeRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-11s %12s %11s\n", "Chunk size", "Delta bytes", "Encode ms")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-11d %12d %11.2f\n", r.ChunkSize, r.DeltaBytes, r.EncodeMs)
	}
	return b.String()
}

// ProbeBudgetRow is one point of the grouping probe-budget ablation.
type ProbeBudgetRow struct {
	MaxProbes    int
	UseHints     bool
	Classes      int
	ProbesPerURL float64
}

// AblateProbeBudget sweeps the grouping probe budget N, with and without
// URL hint-parts, over a multi-department site. Hints should find the right
// class in about one probe regardless of N; without hints, small budgets
// fracture departments into extra classes (Section III's trade-off between
// search-time and matching-quality).
func AblateProbeBudget(budgets []int) ([]ProbeBudgetRow, error) {
	if len(budgets) == 0 {
		budgets = []int{1, 2, 4, 8}
	}
	site := origin.NewSite(origin.Config{
		Host:  "www.abl.com",
		Style: origin.StylePathSegments,
		Depts: []origin.Dept{
			{Name: "laptops", Items: 30}, {Name: "desktops", Items: 30},
			{Name: "phones", Items: 30}, {Name: "tablets", Items: 30},
			{Name: "cameras", Items: 30}, {Name: "printers", Items: 30},
		},
		TemplateBytes: 12000,
		ItemBytes:     1500,
		ChurnBytes:    500,
		Seed:          707,
	})

	var rows []ProbeBudgetRow
	for _, n := range budgets {
		for _, hints := range []bool{true, false} {
			m := classify.NewManager(classify.Config{MaxProbes: n, Seed: 9})
			rng := rand.New(rand.NewPCG(uint64(n), 99))
			for i := 0; i < 360; i++ {
				dept := site.Depts()[rng.IntN(6)].Name
				item := rng.IntN(30)
				doc, err := site.Render(dept, item, "", 0)
				if err != nil {
					return nil, err
				}
				url := site.URL(dept, item)
				parts, err := urlparts.Partition(url)
				if err != nil {
					return nil, err
				}
				if !hints {
					// Strip the hint: ad-hoc site organization.
					parts.Hint = ""
				}
				m.Group(url, parts, doc)
			}
			st := m.Stats()
			rows = append(rows, ProbeBudgetRow{
				MaxProbes:    n,
				UseHints:     hints,
				Classes:      st.Classes,
				ProbesPerURL: st.ProbesPerURL,
			})
		}
	}
	return rows, nil
}

// FormatProbeBudget renders the probe-budget ablation.
func FormatProbeBudget(rows []ProbeBudgetRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-6s %9s %12s   %s\n", "N", "Hints", "Classes", "Probes/URL", "(6 true departments)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4d %-6v %9d %12.2f\n", r.MaxProbes, r.UseHints, r.Classes, r.ProbesPerURL)
	}
	return b.String()
}

// SelectorSweepRow is one point of the (p, K) base-file selection sweep.
type SelectorSweepRow struct {
	SampleProb  float64
	MaxSamples  int
	AvgDelta    float64
	StoredBytes int
}

// AblateSelector sweeps the sampling probability p and the sample store
// size K of the randomized base-file algorithm over the Table III pool,
// reporting base-file quality (average real delta) against storage cost.
// The paper argues K around 10 suffices; this makes the diminishing returns
// visible.
func AblateSelector(probs []float64, ks []int) []SelectorSweepRow {
	if len(probs) == 0 {
		probs = []float64{0.05, 0.2, 0.5, 1}
	}
	if len(ks) == 0 {
		ks = []int{2, 4, 8, 16}
	}
	docs := TableIIIDocs(90)
	coder := vdelta.NewCoder()

	evaluate := func(p float64, k int) (float64, int) {
		s := basefile.NewSelector(basefile.Config{SampleProb: p, MaxSamples: k, Seed: 5})
		now := time.Unix(0, 0)
		total, count := 0, 0
		for _, doc := range docs {
			base, version := s.Base()
			if version > 0 {
				if d, err := coder.Encode(base, doc); err == nil {
					total += len(d)
					count++
				}
			}
			s.Observe(doc, now)
			now = now.Add(time.Second)
		}
		if count == 0 {
			return 0, 0
		}
		return float64(total) / float64(count), s.Stats().StoredBytes
	}

	var rows []SelectorSweepRow
	for _, p := range probs {
		for _, k := range ks {
			avg, stored := evaluate(p, k)
			rows = append(rows, SelectorSweepRow{
				SampleProb:  p,
				MaxSamples:  k,
				AvgDelta:    avg,
				StoredBytes: stored,
			})
		}
	}
	return rows
}

// FormatSelectorSweep renders the (p, K) sweep.
func FormatSelectorSweep(rows []SelectorSweepRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-4s %12s %13s\n", "p", "K", "Avg delta", "Stored bytes")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6.2f %-4d %12.0f %13d\n", r.SampleProb, r.MaxSamples, r.AvgDelta, r.StoredBytes)
	}
	return b.String()
}

// EvictionRow is one point of the footnote-3 eviction-policy comparison.
type EvictionRow struct {
	Policy   basefile.EvictionPolicy
	AvgDelta float64
}

// AblateEviction compares the three eviction variants of footnote 3 over
// the Table III pool.
func AblateEviction() []EvictionRow {
	docs := TableIIIDocs(90)
	coder := vdelta.NewCoder()
	var rows []EvictionRow
	for _, policy := range []basefile.EvictionPolicy{
		basefile.EvictWorst, basefile.EvictPeriodicRandom, basefile.EvictTwoSet,
	} {
		s := basefile.NewSelector(basefile.Config{
			SampleProb: 0.2, MaxSamples: 8, Eviction: policy, Seed: 7,
		})
		now := time.Unix(0, 0)
		total, count := 0, 0
		for _, doc := range docs {
			base, version := s.Base()
			if version > 0 {
				if d, err := coder.Encode(base, doc); err == nil {
					total += len(d)
					count++
				}
			}
			s.Observe(doc, now)
			now = now.Add(time.Second)
		}
		avg := 0.0
		if count > 0 {
			avg = float64(total) / float64(count)
		}
		rows = append(rows, EvictionRow{Policy: policy, AvgDelta: avg})
	}
	return rows
}

// FormatEviction renders the eviction-policy comparison.
func FormatEviction(rows []EvictionRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %12s\n", "Eviction policy", "Avg delta")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %12.0f\n", r.Policy, r.AvgDelta)
	}
	return b.String()
}
