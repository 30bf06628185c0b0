package gzipx

import (
	"bytes"
	"compress/gzip"
	"io"
	"math/rand/v2"
	"slices"
	"testing"
)

// encodeDelta writes data's member whether or not it shrinks data, and checks
// it against the planned size.
func encodeDelta(t testing.TB, data []byte) ([]byte, *deltaCoder) {
	t.Helper()
	var c deltaCoder
	size := c.plan(data)
	out := c.write(nil, data, size)
	if len(out) != size || cap(out) != size {
		t.Fatalf("member is %d bytes (cap %d), planned %d", len(out), cap(out), size)
	}
	return out, &c
}

// checkInflates inflates member through compress/gzip and AppendDecompress.
func checkInflates(t testing.TB, member, want []byte) {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(member))
	if err != nil {
		t.Fatalf("gzip.NewReader: %v", err)
	}
	got, err := io.ReadAll(zr)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("compress/gzip: err=%v, %d bytes back of %d", err, len(got), len(want))
	}
	got, err = AppendDecompress(nil, member, len(want))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("AppendDecompress: err=%v, %d bytes back of %d", err, len(got), len(want))
	}
}

// fibonacci returns bytes whose symbol counts continue the Fibonacci
// sequence the end-of-block's count of 1 starts, so an unlimited Huffman
// tree over them is a chain n deep.
func fibonacci(n int) []byte {
	var out []byte
	a, b := 1, 2
	for s := range n {
		out = append(out, bytes.Repeat([]byte{byte(s)}, a)...)
		a, b = b, a+b
	}
	return out
}

func TestAppendDeltaCases(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	skewed := make([]byte, 100<<10) // over 64 KiB, entropy ~4 bits
	for i := range skewed {
		skewed[i] = byte(rng.IntN(16) * rng.IntN(16))
	}
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	cases := []struct {
		name   string
		data   []byte
		shrink bool // AppendDelta compresses rather than refusing
	}{
		{"empty", nil, false},
		{"one byte", []byte{'x'}, false},
		{"1 MiB of one symbol", bytes.Repeat([]byte{'a'}, 1<<20), true},
		{"all 256 byte values", all, false},
		{"over 64 KiB", skewed, true},
		{"Fibonacci counts", fibonacci(24), true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			member, c := encodeDelta(t, tc.data)
			checkInflates(t, member, tc.data)
			if tc.name == "Fibonacci counts" && slices.Max(c.lit[:]) != maxLitBits {
				t.Errorf("longest literal code is %d bits: the length limiter did not run", slices.Max(c.lit[:]))
			}
			got := AppendDelta([]byte("dst"), tc.data)
			switch {
			case !tc.shrink && string(got) != "dst":
				t.Errorf("a %d-byte member for %d bytes of input was not refused", len(member), len(tc.data))
			case tc.shrink && !bytes.Equal(got, append([]byte("dst"), member...)):
				t.Errorf("AppendDelta output differs from the planned member")
			}
		})
	}
}

// huffCode must give a complete prefix code within the limit, including
// the code-length code's 7 bits, whatever the frequencies.
func TestHuffCodeLimit(t *testing.T) {
	for _, maxBits := range []int{maxCLBits, maxLitBits} {
		for _, n := range []int{2, 3, clSymbols, 40, 60} { // Fibonacci counts fit the 55-bit frequency field up to n=78
			freq := make([]uint64, n)
			a, b := uint64(1), uint64(1)
			for i := range freq {
				freq[i] = a
				a, b = b, a+b
			}
			lens, codes := make([]uint8, n), make([]uint16, n)
			huffCode(freq, lens, codes, maxBits)
			kraft := 0
			for s, l := range lens {
				if l == 0 || int(l) > maxBits {
					t.Fatalf("maxBits %d, %d symbols: symbol %d got length %d", maxBits, n, s, l)
				}
				kraft += 1 << (maxBits - int(l))
			}
			if n <= 1<<maxBits && kraft != 1<<maxBits {
				t.Errorf("maxBits %d, %d symbols: Kraft sum %d/%d, want a complete code", maxBits, n, kraft, 1<<maxBits)
			}
			if n > maxBits+1 && slices.Max(lens) != uint8(maxBits) {
				t.Errorf("maxBits %d, %d symbols: longest code %d, the limiter should have run", maxBits, n, slices.Max(lens))
			}
		}
	}
}

// On a real delta-sized payload the Huffman-only member must stay within a
// few percent of stdlib BestCompression.
func TestAppendDeltaNearBestCompression(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	data := make([]byte, 4<<10)
	for i := range data {
		data[i] = "<div class=\"price\">0123456789</div>\n"[rng.IntN(36)]
	}
	got, want := len(AppendDelta(nil, data)), len(Compress(data))
	if got == 0 || float64(got) > 1.05*float64(want) {
		t.Errorf("AppendDelta: %d bytes, BestCompression: %d", got, want)
	}
}

// FuzzAppendDelta: every member is exactly its planned size and inflates
// byte-exact through compress/gzip and AppendDecompress; AppendDelta returns
// it exactly when it is shorter than the input.
func FuzzAppendDelta(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("a"))
	f.Add([]byte("hello world hello world"))
	f.Add(bytes.Repeat([]byte{0}, 4096))
	f.Add(fibonacci(20))
	f.Fuzz(func(t *testing.T, data []byte) {
		member, _ := encodeDelta(t, data)
		checkInflates(t, member, data)
		got := AppendDelta([]byte("dst"), data)
		want := []byte("dst")
		if len(member) < len(data) {
			want = append(want, member...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendDelta returned %d bytes, want %d", len(got), len(want))
		}
	})
}

func BenchmarkAppendDelta(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 6))
	data := make([]byte, 3700)
	for i := range data {
		data[i] = byte(rng.NormFloat64()*20 + 100)
	}
	dst := make([]byte, 0, len(data))
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dst = AppendDelta(dst[:0], data)
	}
}
