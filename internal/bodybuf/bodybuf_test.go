package bodybuf

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/iotest"
)

func pattern(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>8)
	}
	return b
}

// eofWithData delivers io.EOF together with the last bytes, the way
// net/http's Content-Length bodies and compress/gzip do.
func eofWithData(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }

func TestReadExactWithTruthfulHint(t *testing.T) {
	want := pattern(36_000)
	got, err := Read(nil, eofWithData(want), int64(len(want)), 1<<20)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("err=%v, %d bytes", err, len(got))
	}
	if cap(got) != len(want) {
		t.Errorf("cap = %d, want exactly %d", cap(got), len(want))
	}
}

func TestReadWithoutOrWithWrongHint(t *testing.T) {
	want := pattern(70_000)
	for _, hint := range []int64{-1, 0, 100, 69_999, 70_001, 500_000} {
		// OneByteReader and a late EOF: the worst-behaved legal reader.
		got, err := Read([]byte("prefix"), iotest.OneByteReader(bytes.NewReader(want)), hint, 1<<20)
		if err != nil || !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Errorf("hint %d: err=%v, %d bytes", hint, err, len(got))
		}
	}
}

func TestReadStopsAtBound(t *testing.T) {
	const limit = 10_000
	src := pattern(3 * limit)
	for _, hint := range []int64{-1, 100, limit} {
		r := bytes.NewReader(src)
		got, err := Read(nil, r, hint, limit)
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("hint %d: err = %v, want ErrTooLarge", hint, err)
		}
		if len(got) != limit+1 || cap(got) > limit+1 {
			t.Errorf("hint %d: buffered len %d cap %d, want %d and no more", hint, len(got), cap(got), limit+1)
		}
		// What was read plus what is left is the whole body: a relay loses nothing.
		rest, _ := io.ReadAll(r)
		if !bytes.Equal(append(got, rest...), src) {
			t.Errorf("hint %d: prefix + remainder differ from the source", hint)
		}
	}
	// A stated length over the bound is refused before a byte is read.
	r := bytes.NewReader(src)
	got, err := Read(nil, r, limit+1, limit)
	if !errors.Is(err, ErrTooLarge) || len(got) != 0 || r.Len() != len(src) {
		t.Errorf("oversized hint: err=%v, read %d bytes, %d left", err, len(got), r.Len())
	}
	// Exactly the bound is fine.
	if got, err := Read(nil, bytes.NewReader(src[:limit]), -1, limit); err != nil || len(got) != limit {
		t.Errorf("body of exactly the bound: err=%v len=%d", err, len(got))
	}
}

func TestReadPropagatesReaderError(t *testing.T) {
	boom := errors.New("boom")
	got, err := Read(nil, io.MultiReader(bytes.NewReader(pattern(100)), iotest.ErrReader(boom)), -1, 1000)
	if !errors.Is(err, boom) || len(got) != 100 {
		t.Errorf("err=%v len=%d", err, len(got))
	}
}

func TestWarmBufferReadsWithoutAllocating(t *testing.T) {
	src := pattern(36_000)
	b := Get()
	defer b.Release()
	rd := bytes.NewReader(src)
	b.B, _ = Read(b.B[:0], rd, -1, 1<<20) // warm: the buffer grows past the body once
	for _, hint := range []int64{-1, int64(len(src))} {
		allocs := testing.AllocsPerRun(50, func() {
			rd.Reset(src)
			b.B, _ = Read(b.B[:0], rd, hint, 1<<20)
		})
		if allocs != 0 || !bytes.Equal(b.B, src) {
			t.Errorf("hint %d: %.0f allocs into a warm buffer, want 0", hint, allocs)
		}
	}
}

func TestReleaseDropsHugeBuffers(t *testing.T) {
	b := &Buf{B: make([]byte, 10, maxPooled+1)}
	b.Release()
	if b.B != nil {
		t.Error("a buffer over maxPooled went back to the pool")
	}
	b = &Buf{B: make([]byte, 10, maxPooled)}
	b.Release()
	if cap(b.B) != maxPooled || len(b.B) != 0 {
		t.Errorf("a buffer of maxPooled came back len %d cap %d", len(b.B), cap(b.B))
	}
}
