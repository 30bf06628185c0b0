package vdelta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand/v2"
	"strings"
	"testing"
	"testing/quick"
)

func mustEncode(t *testing.T, c *Coder, base, target []byte) []byte {
	t.Helper()
	delta, err := c.Encode(base, target)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return delta
}

func roundTrip(t *testing.T, c *Coder, base, target []byte) []byte {
	t.Helper()
	delta := mustEncode(t, c, base, target)
	got, err := c.Decode(base, delta)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !bytes.Equal(got, target) {
		t.Fatalf("round trip mismatch: got %d bytes, want %d bytes", len(got), len(target))
	}
	return delta
}

func TestRoundTripBasic(t *testing.T) {
	tests := []struct {
		name   string
		base   string
		target string
	}{
		{"identical", "hello world, this is a base file", "hello world, this is a base file"},
		{"empty both", "", ""},
		{"empty base", "", "brand new content that shares nothing"},
		{"empty target", "some base content here", ""},
		{"append", "the quick brown fox", "the quick brown fox jumps over the lazy dog"},
		{"prepend", "quick brown fox jumps", "the very quick brown fox jumps"},
		{"middle edit", "aaaa bbbb cccc dddd eeee", "aaaa bbbb XXXX dddd eeee"},
		{"total rewrite", "abcdefghijklmnop", "zyxwvutsrqponmlk"},
		{"short base", "ab", "ababababab"},
		{"short target", "a long enough base file", "xy"},
		{"repetitive target", "seed", strings.Repeat("na", 500) + " batman"},
		{"binary-ish", "\x00\x01\x02\x03\x04\x05\x06\x07", "\x00\x01\x02\x03\xff\x04\x05\x06\x07\x00\x01\x02\x03"},
	}
	c := NewCoder()
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			roundTrip(t, c, []byte(tt.base), []byte(tt.target))
		})
	}
}

func TestRoundTripNilSlices(t *testing.T) {
	c := NewCoder()
	roundTrip(t, c, nil, nil)
	roundTrip(t, c, nil, []byte("content"))
	roundTrip(t, c, []byte("content"), nil)
}

func TestDeltaSmallForSimilarDocuments(t *testing.T) {
	base := bytes.Repeat([]byte("The quick brown fox jumps over the lazy dog. "), 200) // ~9 KB
	target := append([]byte{}, base...)
	copy(target[4000:], "EDIT")

	delta := roundTrip(t, NewCoder(), base, target)
	if len(delta) > len(target)/10 {
		t.Errorf("delta for near-identical 9KB docs is %d bytes, want < %d", len(delta), len(target)/10)
	}
}

func TestDeltaIdenticalDocumentsTiny(t *testing.T) {
	base := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KB
	delta := roundTrip(t, NewCoder(), base, base)
	if len(delta) > 64 {
		t.Errorf("delta of identical 64KB docs is %d bytes, want <= 64", len(delta))
	}
}

func TestTargetSelfCopyCompressesRuns(t *testing.T) {
	base := []byte("completely unrelated base material")
	target := bytes.Repeat([]byte("ABCDEFGH"), 1000) // 8 KB of pure repetition

	withSelf := mustEncode(t, NewCoder(WithTargetMatching(true)), base, target)
	withoutSelf := mustEncode(t, NewCoder(WithTargetMatching(false)), base, target)
	if len(withSelf) >= len(withoutSelf) {
		t.Errorf("target self-matching should shrink repetitive targets: with=%d without=%d",
			len(withSelf), len(withoutSelf))
	}
	if len(withSelf) > 256 {
		t.Errorf("self-copy delta of 8KB repetition is %d bytes, want small", len(withSelf))
	}
	// Both must still decode correctly.
	for _, d := range [][]byte{withSelf, withoutSelf} {
		got, err := Decode(base, d)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !bytes.Equal(got, target) {
			t.Fatal("self-copy round trip mismatch")
		}
	}
}

func TestBackwardExtension(t *testing.T) {
	// The match seed occurs 3 bytes into a region that also matches
	// backwards; the encoder should extend the copy backwards into the
	// pending literal run rather than emitting those bytes as literals.
	base := []byte("XXXXXXXXXXXX shared-run-of-bytes-here XXXXXXXXXXXX")
	target := []byte("unrelated prefix shared-run-of-bytes-here suffix")
	delta := roundTrip(t, NewCoder(), base, target)
	if _, copyBytes := opCounts(t, delta); copyBytes < len(" shared-run-of-bytes-here ")-2 {
		t.Errorf("expected a long COPY covering the shared run, got %d COPY bytes", copyBytes)
	}
}

func TestDecodeErrors(t *testing.T) {
	base := []byte("base file content for error tests")
	target := []byte("base file content for error tests, extended")
	delta := mustEncode(t, NewCoder(), base, target)

	t.Run("wrong base length", func(t *testing.T) {
		_, err := Decode([]byte("short"), delta)
		if !errors.Is(err, ErrBaseMismatch) {
			t.Errorf("got %v, want ErrBaseMismatch", err)
		}
	})
	t.Run("wrong base same length", func(t *testing.T) {
		wrong := bytes.Repeat([]byte("z"), len(base))
		_, err := Decode(wrong, delta)
		if !errors.Is(err, ErrChecksum) && !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v, want ErrChecksum or ErrCorrupt", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		for cut := 1; cut < len(delta); cut += 3 {
			_, err := Decode(base, delta[:cut])
			if err == nil {
				t.Fatalf("truncation at %d not detected", cut)
			}
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte{}, delta...)
		bad[0] = 'X'
		_, err := Decode(base, bad)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("empty delta", func(t *testing.T) {
		_, err := Decode(base, nil)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("got %v, want ErrCorrupt", err)
		}
	})
	t.Run("flipped literal byte detected by checksum", func(t *testing.T) {
		// Flip a byte near the end of the instruction stream (likely a
		// literal); the checksum must catch it if the structure survives.
		bad := append([]byte{}, delta...)
		bad[len(bad)-2] ^= 0xff
		_, err := Decode(base, bad)
		if err == nil {
			t.Error("corrupted delta decoded without error")
		}
	})
}

// Every single-bit error in the reconstructed target, and in the stored
// checksum itself, is caught: CRC-32C detects all of them by construction.
func TestChecksumCatchesEverySingleBitFlip(t *testing.T) {
	base := make([]byte, 400)
	rng := rand.New(rand.NewPCG(3, 4))
	for i := range base {
		base[i] = byte(rng.IntN(256))
	}
	target := append(append([]byte(nil), base...), " plus a literal tail"...)
	delta, err := Encode(base, target)
	if err != nil {
		t.Fatal(err)
	}
	if _, copyBytes := opCounts(t, delta); copyBytes != len(base) {
		t.Fatalf("setup: want the whole base copied, got %d bytes", copyBytes)
	}
	// The target is the base plus a tail, so a flipped base bit is exactly
	// one flipped bit of the reconstruction.
	for bit := 0; bit < 8*len(base); bit++ {
		base[bit/8] ^= 1 << (bit % 8)
		if _, err := Decode(base, delta); !errors.Is(err, ErrChecksum) {
			t.Fatalf("target bit %d flipped: err = %v, want ErrChecksum", bit, err)
		}
		base[bit/8] ^= 1 << (bit % 8)
	}
	sum := 5 + uvarintLen(uint64(len(base))) + uvarintLen(uint64(len(target)))
	if binary.BigEndian.Uint32(delta[sum:]) != crc32.Checksum(target, crc32.MakeTable(crc32.Castagnoli)) {
		t.Fatal("header slot does not hold the big-endian CRC-32C of the target")
	}
	for bit := 0; bit < 32; bit++ {
		delta[sum+bit/8] ^= 1 << (bit % 8)
		if _, err := Decode(base, delta); !errors.Is(err, ErrChecksum) {
			t.Fatalf("checksum bit %d flipped: err = %v, want ErrChecksum", bit, err)
		}
		delta[sum+bit/8] ^= 1 << (bit % 8)
	}
	if got, err := Decode(base, delta); err != nil || !bytes.Equal(got, target) {
		t.Fatalf("restored delta no longer decodes: %v", err)
	}
}

// A delta from a build with the interleaved layout ("VD02") or the FNV-32a
// checksum ("VD01") is refused outright rather than misread.
func TestOldMagicIsCorrupt(t *testing.T) {
	base := []byte("the base-file both builds agree on")
	delta, err := Encode(base, []byte("the base-file both builds agree on, extended"))
	if err != nil {
		t.Fatal(err)
	}
	if string(delta[:4]) != "VD03" {
		t.Fatalf("magic = %q, want VD03", delta[:4])
	}
	for _, old := range []string{"VD01", "VD02"} {
		copy(delta, old)
		if _, err := Decode(base, delta); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s delta: err = %v, want ErrCorrupt", old, err)
		}
		if _, _, _, err := Ops(delta); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s delta: Ops err = %v, want ErrCorrupt", old, err)
		}
	}
}

func TestNoChecksumOption(t *testing.T) {
	c := NewCoder(WithChecksum(false))
	base := []byte("some base data")
	target := []byte("some base data plus more")
	delta := roundTrip(t, c, base, target)
	if hdr, _, err := parseDelta(delta); err != nil || hdr.hasChecksum {
		t.Errorf("delta has checksum despite WithChecksum(false) (err %v)", err)
	}
}

func TestChunkSizeOptions(t *testing.T) {
	base := bytes.Repeat([]byte("abcdefgh12345678"), 256)
	target := append([]byte("prefix-"), base...)
	for _, w := range []int{2, 4, 8, 16, 32, 64} {
		c := NewCoder(WithChunkSize(w))
		roundTrip(t, c, base, target)
	}
}

func TestChunkSizeClamped(t *testing.T) {
	// Out-of-range chunk sizes must be clamped, not panic.
	for _, w := range []int{-5, 0, 1, 1000} {
		c := NewCoder(WithChunkSize(w))
		roundTrip(t, c, []byte("base data here"), []byte("target data here"))
	}
}

// randDoc generates a pseudo-document and a mutated version of it,
// exercising realistic edit patterns (inserts, deletes, replacements).
func randDoc(rng *rand.Rand, size int) ([]byte, []byte) {
	words := []string{"<html>", "<div>", "content", "price", "laptop", "desktop",
		"</div>", "user", "session", "1234", "news", "</html>", " ", "\n"}
	var b bytes.Buffer
	for b.Len() < size {
		b.WriteString(words[rng.IntN(len(words))])
	}
	base := b.Bytes()
	target := append([]byte{}, base...)
	edits := 1 + rng.IntN(8)
	for i := 0; i < edits; i++ {
		if len(target) == 0 {
			break
		}
		pos := rng.IntN(len(target))
		switch rng.IntN(3) {
		case 0: // insert
			ins := []byte(words[rng.IntN(len(words))])
			target = append(target[:pos], append(ins, target[pos:]...)...)
		case 1: // delete
			end := pos + rng.IntN(20)
			if end > len(target) {
				end = len(target)
			}
			target = append(target[:pos], target[end:]...)
		default: // replace
			end := pos + rng.IntN(10)
			if end > len(target) {
				end = len(target)
			}
			for j := pos; j < end; j++ {
				target[j] = byte(rng.IntN(256))
			}
		}
	}
	return base, target
}

func TestRoundTripRandomizedEdits(t *testing.T) {
	rng := rand.New(rand.NewPCG(42, 1))
	c := NewCoder()
	for i := 0; i < 200; i++ {
		base, target := randDoc(rng, 50+rng.IntN(4000))
		delta := mustEncode(t, c, base, target)
		got, err := c.Decode(base, delta)
		if err != nil {
			t.Fatalf("iter %d: Decode: %v", i, err)
		}
		if !bytes.Equal(got, target) {
			t.Fatalf("iter %d: round trip mismatch", i)
		}
	}
}

func TestQuickRoundTrip(t *testing.T) {
	c := NewCoder()
	f := func(base, target []byte) bool {
		delta, err := c.Encode(base, target)
		if err != nil {
			return false
		}
		got, err := c.Decode(base, delta)
		return err == nil && bytes.Equal(got, target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickDeltaNeverHugelyLarger(t *testing.T) {
	// A delta can exceed the target (headers + op bytes) but must stay
	// within a small additive/multiplicative envelope of the trivial
	// encoding that ADDs the whole target.
	c := NewCoder()
	f := func(base, target []byte) bool {
		delta, err := c.Encode(base, target)
		if err != nil {
			return false
		}
		bound := len(target) + len(target)/4 + 64
		return len(delta) <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickDecodeNeverPanicsOnGarbage(t *testing.T) {
	base := []byte("a base file that garbage deltas will be applied to")
	f := func(garbage []byte) bool {
		// Must return an error or a value, never panic.
		_, _ = Decode(base, garbage)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickTruncatedRealDeltasNeverPanic(t *testing.T) {
	c := NewCoder()
	rng := rand.New(rand.NewPCG(7, 7))
	base, target := randDoc(rng, 2000)
	delta := mustEncode(t, c, base, target)
	for cut := 0; cut <= len(delta); cut++ {
		got, err := c.Decode(base, delta[:cut])
		if cut == len(delta) {
			if err != nil || !bytes.Equal(got, target) {
				t.Fatalf("full delta failed: %v", err)
			}
		} else if err == nil {
			t.Fatalf("truncation at %d yielded no error", cut)
		}
	}
}
