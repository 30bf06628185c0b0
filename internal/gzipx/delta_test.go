package gzipx

import (
	"bytes"
	"compress/gzip"
	"io"
	"math/rand/v2"
	"slices"
	"testing"
)

// encodeDelta writes the sections' member whether or not it shrinks them,
// and checks it against the planned size.
func encodeDelta(t testing.TB, sections ...[]byte) ([]byte, *deltaMember) {
	t.Helper()
	var m deltaMember
	size, raw := m.plan(sections)
	if m.nblocks == 0 {
		return nil, &m
	}
	out := m.write(nil, sections, size, raw)
	if len(out) != size || cap(out) != size {
		t.Fatalf("member is %d bytes (cap %d), planned %d", len(out), cap(out), size)
	}
	return out, &m
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
			member, m := encodeDelta(t, tc.data)
			if len(tc.data) > 0 {
				checkInflates(t, member, tc.data)
			}
			if tc.name == "Fibonacci counts" && slices.Max(m.blocks[0].lit[:]) != maxLitBits {
				t.Errorf("longest literal code is %d bits: the length limiter did not run", slices.Max(m.blocks[0].lit[:]))
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

// A member of several blocks — one per non-empty section, the last holding
// whatever sections are left past maxBlocks — inflates byte-exact through
// both readers and is exactly its planned size, for sections of 0, 1, 2 and
// 100 KiB and a length-limited Fibonacci histogram, in every order.
func TestAppendDeltaSections(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 8))
	big := make([]byte, 100<<10)
	for i := range big {
		big[i] = byte(rng.IntN(16) * rng.IntN(16))
	}
	parts := [][]byte{nil, {'x'}, []byte("ab"), big, fibonacci(24)}
	var sections [][][]byte
	for _, a := range parts {
		for _, b := range parts {
			for _, c := range parts {
				sections = append(sections, [][]byte{a, b, c})
			}
		}
	}
	sections = append(sections, append(slices.Clone(parts), parts...)) // past maxBlocks
	for _, secs := range sections {
		whole := bytes.Join(secs, nil)
		member, m := encodeDelta(t, secs...)
		if len(whole) == 0 {
			if m.nblocks != 0 || string(AppendDelta([]byte("dst"), secs...)) != "dst" {
				t.Fatal("empty sections were coded")
			}
			continue
		}
		nonEmpty := 0
		for _, s := range secs {
			if len(s) > 0 {
				nonEmpty++
			}
		}
		if m.nblocks != min(nonEmpty, maxBlocks) {
			t.Fatalf("%d non-empty sections in %d blocks", nonEmpty, m.nblocks)
		}
		checkInflates(t, member, whole)
		got := AppendDelta([]byte("dst"), secs...)
		want := []byte("dst")
		if len(member) < len(whole) {
			want = append(want, member...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("AppendDelta returned %d bytes, want %d", len(got), len(want))
		}
		if fresh := AppendDelta(nil, secs...); len(fresh) > 0 && cap(fresh) != len(fresh) {
			t.Fatalf("member of %d bytes has cap %d", len(fresh), cap(fresh))
		}
	}
}

// Coding distinct distributions apart beats one code over their
// concatenation when each section is big enough to pay for its header.
func TestAppendDeltaSectionsBeatOneBlock(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 10))
	text, ops, addrs := make([]byte, 1500), make([]byte, 1200), make([]byte, 900)
	for i := range text {
		text[i] = "<div class=\"price\">abcdefghij</div>\n"[rng.IntN(36)]
	}
	for i := range ops {
		ops[i] = byte(rng.IntN(3) * rng.IntN(40))
	}
	for i := range addrs {
		addrs[i] = byte(128 + rng.IntN(128))
	}
	apart := len(AppendDelta(nil, text, ops, addrs))
	one := len(AppendDelta(nil, bytes.Join([][]byte{text, ops, addrs}, nil)))
	if apart == 0 || apart >= one {
		t.Errorf("three blocks: %d bytes, one block: %d", apart, one)
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
	f.Add([]byte("hello world hello world, the second section"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Cut data into up to three sections at points drawn from its
		// length, so the fuzzer explores multi-block members too.
		cut1, cut2 := len(data)/3, len(data)*2/3
		if len(data) > 0 {
			cut1, cut2 = int(data[0])%(len(data)+1), int(data[len(data)-1])%(len(data)+1)
		}
		cut1, cut2 = min(cut1, cut2), max(cut1, cut2)
		secs := [][]byte{data[:cut1], data[cut1:cut2], data[cut2:]}
		member, _ := encodeDelta(t, secs...)
		if len(data) > 0 {
			checkInflates(t, member, data)
		}
		got := AppendDelta([]byte("dst"), secs...)
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
