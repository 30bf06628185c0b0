package gzipx

import (
	"bytes"
	"errors"
	"testing"

	"cbde/internal/bodybuf"
	"cbde/internal/testutil"
)

// Allocation budgets for the pooled gzip paths, asserted with
// testing.AllocsPerRun so a pooling regression fails `go test ./...`.
// Compress allocates exactly its returned buffer (budget 2 allows a pool
// refill after GC); AppendCompress into sufficient capacity and
// CompressedSize allocate nothing, and so does AppendDelta into a dst
// with the room; Decompress allocates exactly the inflated
// output, sized in one step from the ISIZE trailer (same allowance of 2);
// AppendDecompress into a warm scratch allocates nothing.
const (
	compressAllocBudget         = 2
	appendCompressAllocBudget   = 0.5
	compressedSizeAllocBudget   = 0.5
	decompressAllocBudget       = 2
	appendDecompressAllocBudget = 0
)

func benchPayload() []byte {
	return bytes.Repeat([]byte("dynamic document content, mildly compressible; "), 600) // ~28 KB
}

func TestCompressAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	data := benchPayload()
	for i := 0; i < 3; i++ {
		Compress(data)
	}
	allocs := testing.AllocsPerRun(50, func() { Compress(data) })
	if allocs > compressAllocBudget {
		t.Errorf("Compress allocates %.1f objects/op, budget %d", allocs, compressAllocBudget)
	}
}

func TestAppendCompressAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	data := benchPayload()
	for name, compress := range map[string]func(dst, data []byte) []byte{
		"AppendCompress":     AppendCompress,
		"AppendCompressFast": AppendCompressFast,
	} {
		dst := make([]byte, 0, len(data))
		for i := 0; i < 3; i++ {
			dst = compress(dst[:0], data)
		}
		allocs := testing.AllocsPerRun(50, func() { dst = compress(dst[:0], data) })
		if allocs > appendCompressAllocBudget {
			t.Errorf("%s allocates %.1f objects/op with capacity, budget %.1f",
				name, allocs, appendCompressAllocBudget)
		}
	}
}

func TestAppendDeltaAllocsNothing(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	data := benchPayload()[:4096]
	dst := make([]byte, 0, len(data))
	allocs := testing.AllocsPerRun(50, func() { dst = AppendDelta(dst[:0], data) })
	if allocs != 0 || len(dst) == 0 {
		t.Errorf("AppendDelta allocates %.1f objects/op into a dst with room (%d bytes out)", allocs, len(dst))
	}
}

func TestCompressedSizeAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	data := benchPayload()
	for i := 0; i < 3; i++ {
		CompressedSize(data)
	}
	allocs := testing.AllocsPerRun(50, func() { CompressedSize(data) })
	if allocs > compressedSizeAllocBudget {
		t.Errorf("CompressedSize allocates %.1f objects/op, budget %.1f",
			allocs, compressedSizeAllocBudget)
	}
}

func TestDecompressAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	c := Compress(benchPayload())
	for i := 0; i < 3; i++ {
		if _, err := Decompress(c); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := Decompress(c); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > decompressAllocBudget {
		t.Errorf("Decompress allocates %.1f objects/op, budget %d", allocs, decompressAllocBudget)
	}
}

func TestAppendDecompressAllocBudget(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("allocation counts differ under -race")
	}
	data := benchPayload()
	c := Compress(data)
	var scratch []byte
	var err error
	for i := 0; i < 3; i++ {
		if scratch, err = AppendDecompress(scratch[:0], c, 1<<20); err != nil {
			t.Fatal(err)
		}
	}
	if cap(scratch) != len(data) {
		t.Errorf("scratch grew to %d bytes for a %d-byte document: ISIZE should size it exactly", cap(scratch), len(data))
	}
	allocs := testing.AllocsPerRun(50, func() {
		if scratch, err = AppendDecompress(scratch[:0], c, 1<<20); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > appendDecompressAllocBudget || !bytes.Equal(scratch, data) {
		t.Errorf("AppendDecompress allocates %.1f objects/op into a warm scratch, budget %d",
			allocs, appendDecompressAllocBudget)
	}
}

// A few KB of hostile input must not buy an unbounded allocation: the bomb
// fails as soon as the output passes max, whatever its trailer claims, having
// allocated less than 2x max.
func TestAppendDecompressRefusesBomb(t *testing.T) {
	const max = 64 << 10
	bomb := Compress(make([]byte, 1<<20))
	if len(bomb) > 2<<10 {
		t.Fatalf("bomb is %d bytes, expected about 1 KB", len(bomb))
	}
	lying := append([]byte(nil), bomb...)
	copy(lying[len(lying)-4:], []byte{16, 0, 0, 0}) // ISIZE claims 16 bytes
	for name, in := range map[string][]byte{"honest ISIZE": bomb, "forged ISIZE": lying} {
		prefix := []byte("kept")
		out, err := AppendDecompress(prefix, in, max)
		if !errors.Is(err, bodybuf.ErrTooLarge) {
			t.Fatalf("%s: err = %v, want bodybuf.ErrTooLarge", name, err)
		}
		if string(out) != "kept" {
			t.Errorf("%s: dst came back extended to %d bytes on error", name, len(out))
		}
	}
	if out, err := AppendDecompress(nil, bomb, 1<<20); err != nil || len(out) != 1<<20 {
		t.Errorf("the same stream under a bound it fits: err=%v len=%d", err, len(out))
	}
	if testutil.RaceEnabled {
		return
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := AppendDecompress(nil, bomb, max); err == nil {
				b.Fatal("bomb inflated")
			}
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 2*max {
		t.Errorf("refusing the bomb allocated %d bytes/op, want < %d", got, 2*max)
	}
}
