package gzipx

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	tests := [][]byte{
		nil,
		[]byte(""),
		[]byte("x"),
		[]byte("hello world hello world hello world"),
		bytes.Repeat([]byte("compressible content "), 1000),
		{0x00, 0xff, 0x80, 0x7f},
	}
	for i, data := range tests {
		c := Compress(data)
		got, err := Decompress(c)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("case %d: round trip mismatch", i)
		}
		if got, err := Decompress(AppendCompressFast(nil, data)); err != nil || !bytes.Equal(got, data) {
			t.Errorf("case %d: BestSpeed round trip: %v", i, err)
		}
	}
}

func TestCompressShrinksRedundantData(t *testing.T) {
	data := bytes.Repeat([]byte("The quick brown fox jumps over the lazy dog. "), 500)
	c := Compress(data)
	if len(c) >= len(data)/5 {
		t.Errorf("compressed %d -> %d, want at least 5x reduction", len(data), len(c))
	}
}

func TestDecompressGarbage(t *testing.T) {
	if _, err := Decompress([]byte("not gzip at all")); err == nil {
		t.Error("expected error for non-gzip input")
	}
	if _, err := Decompress(nil); err == nil {
		t.Error("expected error for empty input")
	}
	// Truncated stream.
	c := Compress(bytes.Repeat([]byte("data"), 100))
	if _, err := Decompress(c[:len(c)/2]); err == nil {
		t.Error("expected error for truncated stream")
	}
}

func TestRatio(t *testing.T) {
	if r := Ratio(nil); r != 1 {
		t.Errorf("Ratio(nil) = %v, want 1", r)
	}
	data := bytes.Repeat([]byte("abcabcabc"), 1000)
	if r := Ratio(data); r < 5 {
		t.Errorf("Ratio(redundant) = %v, want > 5", r)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		got, err := Decompress(Compress(data))
		return err == nil && bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentUse(t *testing.T) {
	data := bytes.Repeat([]byte("concurrent pool exercise "), 200)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				got, err := Decompress(Compress(data))
				if err != nil || !bytes.Equal(got, data) {
					t.Errorf("concurrent round trip failed: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// FuzzAppendDecompress: whatever the bytes, the output never exceeds max, dst
// is never clobbered, and a stream that fits inflates to what Decompress
// returns.
func FuzzAppendDecompress(f *testing.F) {
	f.Add(Compress([]byte("hello world hello world")), 1024)
	f.Add(Compress(make([]byte, 1<<16)), 100)
	f.Add(Compress(nil), 0)
	f.Add(append(Compress([]byte("two ")), Compress([]byte("members"))...), 8)
	f.Add([]byte("not gzip at all"), 10)
	f.Fuzz(func(t *testing.T, data []byte, max int) {
		if max < 0 || max > 1<<20 {
			t.Skip()
		}
		got, err := AppendDecompress([]byte("dst"), data, max)
		if !bytes.HasPrefix(got, []byte("dst")) || len(got)-3 > max {
			t.Fatalf("dst clobbered or bound broken: %d bytes under max %d", len(got)-3, max)
		}
		want, werr := Decompress(data)
		switch {
		case werr != nil && err == nil:
			t.Fatalf("AppendDecompress accepted what Decompress rejects: %v", werr)
		case werr == nil && len(want) <= max && (err != nil || !bytes.Equal(got[3:], want)):
			t.Fatalf("stream of %d bytes under max %d: err=%v", len(want), max, err)
		case werr == nil && len(want) > max && err == nil:
			t.Fatalf("stream of %d bytes passed max %d", len(want), max)
		}
	})
}
