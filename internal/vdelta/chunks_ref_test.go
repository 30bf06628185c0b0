package vdelta

// This file retains CommonChunksRun as it was before the prefilter, the
// word-wise extensions and the pooled scratch: a fresh target index and
// covered array per call, byte-at-a-time extension in both directions, a
// chain walk at every uncovered base position. The differential tests pin
// the production kernel's output to it bit for bit.

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"testing"

	"cbde/internal/origin"
)

func commonChunksRunRef(base, target []byte, chunkSize, runLen int) []bool {
	if chunkSize < 1 {
		chunkSize = DefaultChunkSize
	}
	if runLen <= chunkSize {
		return CommonChunks(base, target, chunkSize)
	}
	numChunks := (len(base) + chunkSize - 1) / chunkSize
	common := make([]bool, numChunks)
	if len(base) == 0 || len(target) == 0 || runLen > len(target) {
		return common
	}

	// covered[i] will report whether base[i] lies in a common run of at
	// least runLen bytes. Seed candidate runs with a window index over the
	// target, verify, and extend maximally in both directions.
	w := chunkSize
	idx := newChunkIndex(positionCount(len(target), w, 1), 64)
	for i := 0; i+w <= len(target); i++ {
		idx.add(hashChunk(target, i, w), int32(i))
	}

	covered := make([]bool, len(base))
	for i := 0; i+w <= len(base); i++ {
		if covered[i] {
			continue
		}
		h := hashChunk(base, i, w)
		bestLen, bestStart := 0, 0
		for pos, k := idx.head[h&idx.mask], 0; pos >= 0 && k < idx.maxChain; pos, k = idx.prev[pos], k+1 {
			p := int(pos)
			if !bytesEqualAt(target, p, base[i:i+w]) {
				continue
			}
			// Extend forwards.
			n := w
			for i+n < len(base) && p+n < len(target) && base[i+n] == target[p+n] {
				n++
			}
			// Extend backwards.
			back := 0
			for i-back > 0 && p-back > 0 && base[i-back-1] == target[p-back-1] {
				back++
			}
			if n+back > bestLen {
				bestLen, bestStart = n+back, i-back
			}
		}
		if bestLen >= runLen {
			for k := bestStart; k < bestStart+bestLen; k++ {
				covered[k] = true
			}
		}
	}

	for ci := 0; ci < numChunks; ci++ {
		lo := ci * chunkSize
		hi := lo + chunkSize
		if hi > len(base) {
			hi = len(base)
		}
		all := true
		for k := lo; k < hi; k++ {
			if !covered[k] {
				all = false
				break
			}
		}
		common[ci] = all
	}
	return common
}

func checkCommonChunksRun(t *testing.T, base, target []byte, chunkSize, runLen int, name string) {
	t.Helper()
	got := CommonChunksRun(base, target, chunkSize, runLen)
	want := commonChunksRunRef(base, target, chunkSize, runLen)
	if len(got) != len(want) {
		t.Fatalf("%s: %d chunks, reference %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s (chunk %d, run %d, %d/%d bytes): chunk %d is %v, reference %v",
				name, chunkSize, runLen, len(base), len(target), i, got[i], want[i])
		}
	}
}

// squeezeSite renders pages of the shape the stale_squeeze benchmark
// workload serves: 8 departments of 16 items, personalized, ~38 KB each.
func squeezeSite() *origin.Site {
	cfg := origin.Config{
		Host:          "www.shop.com",
		Style:         origin.StylePathSegments,
		TemplateBytes: 30000,
		ItemBytes:     4000,
		ChurnBytes:    1500,
		Personalized:  true,
		Seed:          7,
	}
	for d := 0; d < 8; d++ {
		cfg.Depts = append(cfg.Depts, origin.Dept{Name: fmt.Sprintf("dept%d", d), Items: 16})
	}
	return origin.NewSite(cfg)
}

func renderPage(tb testing.TB, site *origin.Site, dept int, rng *rand.Rand) []byte {
	tb.Helper()
	page, err := site.Render(fmt.Sprintf("dept%d", dept), rng.IntN(16),
		fmt.Sprintf("user-%d", rng.IntN(64)), rng.IntN(40))
	if err != nil {
		tb.Fatal(err)
	}
	return page
}

// TestCommonChunksRunMatchesReference holds the production kernel to the
// reference on same-class origin pages (the anonymization workload: mixed
// users, items and ticks, so both shared template and private regions) and
// on random low-alphabet inputs, whose many short chance matches stress
// the prefilter's window arithmetic and the chain cap, at run lengths on
// both sides of the prefilter's 16-byte window.
func TestCommonChunksRunMatchesReference(t *testing.T) {
	site := squeezeSite()
	rng := rand.New(rand.NewPCG(36, 1))
	pages := 40
	if testing.Short() {
		pages = 8
	}
	for i := 0; i < pages; i++ {
		// Mostly same-department pairs, as a class's documents are.
		dept := rng.IntN(8)
		base := renderPage(t, site, dept, rng)
		if i%4 == 3 {
			dept = (dept + 1) % 8
		}
		target := renderPage(t, site, dept, rng)
		checkCommonChunksRun(t, base, target, 4, 16, fmt.Sprintf("page pair %d", i))
	}

	for _, runLen := range []int{5, 12, 16, 17, 24, 32} {
		for i := 0; i < 150; i++ {
			alpha := 2 + rng.IntN(3)
			base := make([]byte, rng.IntN(600))
			for k := range base {
				base[k] = 'a' + byte(rng.IntN(alpha))
			}
			// Targets share stretches of the base, so runs at and around
			// runLen are common; the longer ones fill the 64-entry chains.
			tlen := rng.IntN(700) + i%3*1500
			target := make([]byte, 0, tlen)
			for len(target) < tlen {
				if len(base) > 0 && rng.IntN(2) == 0 {
					lo := rng.IntN(len(base))
					target = append(target, base[lo:min(len(base), lo+rng.IntN(3*runLen))]...)
				} else {
					target = append(target, 'a'+byte(rng.IntN(alpha)))
				}
			}
			chunk := []int{4, 4, 3, 5}[i%4]
			checkCommonChunksRun(t, base, target, chunk, runLen, fmt.Sprintf("random pair %d", i))
		}
	}
}

// FuzzCommonChunksRunMatchesReference holds the kernel (prefilter,
// word-wise extensions, pooled scratch) to the reference on whatever the
// fuzzer finds.
func FuzzCommonChunksRunMatchesReference(f *testing.F) {
	f.Add([]byte("base bytes"), []byte("target bytes"), 4, 16)
	f.Add([]byte{}, []byte{}, 0, 0)
	f.Add([]byte("x"), []byte("y"), -3, 1000)
	f.Add(bytes.Repeat([]byte("0123456789abcdef"), 40), bytes.Repeat([]byte("0123456789abcdeX"), 40), 4, 16)
	f.Add(bytes.Repeat([]byte("abaab"), 90), bytes.Repeat([]byte("aabab"), 70), 4, 17)
	f.Fuzz(func(t *testing.T, base, target []byte, chunkSize, runLen int) {
		if chunkSize > 1<<16 || chunkSize < -1<<16 || runLen > 1<<16 || runLen < -1<<16 {
			t.Skip()
		}
		checkCommonChunksRun(t, base, target, chunkSize, runLen, "fuzz input")
		cs := chunkSize
		if cs < 1 {
			cs = DefaultChunkSize
		}
		if got, want := len(CommonChunksRun(base, target, chunkSize, runLen)), (len(base)+cs-1)/cs; got != want {
			t.Fatalf("got %d chunks, want %d", got, want)
		}
	})
}

var chunksSink []bool

// BenchmarkCommonChunksRun is one anonymization comparison: two ~38 KB
// same-class pages of different users, at the default chunk and run.
func BenchmarkCommonChunksRun(b *testing.B) {
	site := squeezeSite()
	base, err := site.Render("dept3", 5, "user-1", 10)
	if err != nil {
		b.Fatal(err)
	}
	target, err := site.Render("dept3", 9, "user-2", 12)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(base)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunksSink = CommonChunksRun(base, target, 4, 16)
	}
}
