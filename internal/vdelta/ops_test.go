package vdelta

import (
	"bytes"
	"math/rand/v2"
	"testing"
)

func TestOpsReconstruct(t *testing.T) {
	// Applying the parsed ops by hand must reproduce the target.
	rng := rand.New(rand.NewPCG(31, 8))
	for i := 0; i < 30; i++ {
		base, target := randDoc(rng, 300+rng.IntN(3000))
		delta, err := Encode(base, target)
		if err != nil {
			t.Fatal(err)
		}
		ops, baseLen, targetLen, err := Ops(delta)
		if err != nil {
			t.Fatal(err)
		}
		if baseLen != len(base) || targetLen != len(target) {
			t.Fatalf("header lengths %d/%d, want %d/%d", baseLen, targetLen, len(base), len(target))
		}
		var out []byte
		for _, op := range ops {
			switch op.Kind {
			case OpAdd:
				out = append(out, op.Data...)
			case OpCopy:
				for j := 0; j < op.Len; j++ {
					p := op.Start + j
					if p < len(base) {
						out = append(out, base[p])
					} else {
						out = append(out, out[p-len(base)])
					}
				}
			default:
				t.Fatalf("unknown op kind %d", op.Kind)
			}
		}
		if !bytes.Equal(out, target) {
			t.Fatalf("iter %d: ops do not reproduce the target", i)
		}
	}
}

func TestOpsErrors(t *testing.T) {
	base := []byte("some base")
	delta, err := Encode(base, []byte("some base extended with content"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Ops(nil); err == nil {
		t.Error("Ops(nil) accepted")
	}
	for cut := 5; cut < len(delta); cut += 3 {
		if _, _, _, err := Ops(delta[:cut]); err == nil {
			t.Errorf("truncated delta at %d accepted", cut)
		}
	}
	bad := bytes.Clone(delta)
	s := Sections(bad)
	s[1][0] = 0x7F // the first opcode
	if _, _, _, err := Ops(bad); err == nil {
		t.Error("unknown opcode accepted")
	}
}

func TestPackageLevelEncode(t *testing.T) {
	base := []byte("package-level helpers base")
	target := []byte("package-level helpers base and target")
	delta, err := Encode(base, target)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(base, delta)
	if err != nil || !bytes.Equal(got, target) {
		t.Fatalf("package-level round trip failed: %v", err)
	}
}

func TestMaxChainAndMinMatchOptions(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 9))
	base, target := randDoc(rng, 4000)
	for _, c := range []*Coder{
		NewCoder(WithMaxChain(1)),
		NewCoder(WithMaxChain(-5)), // clamped to 1
		NewCoder(WithMinMatch(12)),
		NewCoder(WithMinMatch(0)), // clamped
	} {
		delta, err := c.Encode(base, target)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.Decode(base, delta)
		if err != nil || !bytes.Equal(got, target) {
			t.Fatalf("option round trip failed: %v", err)
		}
	}
	// A longer min-match emits fewer, longer copies.
	strict, _ := NewCoder(WithMinMatch(64)).Encode(base, target)
	loose, _ := NewCoder(WithMinMatch(4)).Encode(base, target)
	is, _ := opCounts(t, strict)
	il, _ := opCounts(t, loose)
	if is > il {
		t.Errorf("min-match 64 produced more copies (%d) than min-match 4 (%d)", is, il)
	}
}

func TestCommonChunksRunBasics(t *testing.T) {
	base := []byte("0123456789abcdefghijklmnop-PRIVATE-zzzz")
	target := []byte("xx 0123456789abcdefghijklmnop yy")
	// With a 16-byte run requirement, the long shared run is common and
	// the private tail is not.
	common := CommonChunksRun(base, target, 4, 16)
	if !common[0] || !common[1] || !common[2] {
		t.Errorf("shared run not detected: %v", common)
	}
	// Chunks covering "-PRIVATE-" must not be common.
	for ci := 7; ci < len(common); ci++ {
		if common[ci] {
			t.Errorf("chunk %d (private region) marked common: %v", ci, common)
		}
	}
}

func TestCommonChunksRunFallsBackToPlain(t *testing.T) {
	base := []byte("abcdefgh")
	a := CommonChunksRun(base, base, 4, 4) // runLen <= chunkSize
	b := CommonChunks(base, base, 4)
	if len(a) != len(b) {
		t.Fatal("fallback mismatch")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("chunk %d differs between fallback and plain", i)
		}
	}
}

func TestCommonChunksRunShortTarget(t *testing.T) {
	base := []byte("a longer base file with various content inside")
	common := CommonChunksRun(base, []byte("tiny"), 4, 16)
	for i, c := range common {
		if c {
			t.Errorf("chunk %d common against a target shorter than the run", i)
		}
	}
	if got := CommonChunksRun(nil, []byte("x"), 4, 16); len(got) != 0 {
		t.Error("empty base should yield no chunks")
	}
}

func TestCommonChunksRunDefaultsChunkSize(t *testing.T) {
	base := bytes.Repeat([]byte("shared content here "), 4)
	common := CommonChunksRun(base, base, 0, 16)
	if len(common) != (len(base)+3)/4 {
		t.Errorf("default chunk size not applied: %d chunks", len(common))
	}
	for i, c := range common {
		if !c {
			t.Errorf("chunk %d of identical docs not common", i)
		}
	}
}

func TestEncodeTooLargeGuard(t *testing.T) {
	// The guard only triggers beyond MaxInt32, which we cannot allocate;
	// exercise the error constructor instead.
	err := errInputTooLarge(1, 2)
	if err == nil {
		t.Fatal("nil error")
	}
}
