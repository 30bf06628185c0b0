package vdelta

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"cbde/internal/origin"
)

// handDelta writes the delta of h over ops with the wire format spelled out
// independently of the encoder's writer: it is what the reference encoder
// and the hand-built decoder cases emit.
func handDelta(h header, ops ...Op) []byte {
	var data, inst, addr []byte
	for _, op := range ops {
		switch op.Kind {
		case OpAdd:
			inst = binary.AppendUvarint(append(inst, opAdd), uint64(len(op.Data)))
			data = append(data, op.Data...)
		case OpCopy:
			inst = binary.AppendUvarint(append(inst, opCopy), uint64(op.Len))
			addr = binary.AppendUvarint(addr, uint64(op.Start))
		default: // an opcode no decoder knows
			inst = binary.AppendUvarint(append(inst, byte(op.Kind)), uint64(op.Len))
		}
	}
	d := []byte("VD03\x00")
	if h.hasChecksum {
		d[4] = flagChecksum
	}
	d = binary.AppendUvarint(d, uint64(h.baseLen))
	d = binary.AppendUvarint(d, uint64(h.targetLen))
	if h.hasChecksum {
		d = binary.BigEndian.AppendUint32(d, h.checksum)
	}
	for _, s := range [][]byte{data, inst, addr} {
		d = binary.AppendUvarint(d, uint64(len(s)))
	}
	return append(append(append(d, data...), inst...), addr...)
}

func add(s string) Op               { return Op{Kind: OpAdd, Data: []byte(s), Len: len(s)} }
func copyOp(start, n int) Op        { return Op{Kind: OpCopy, Start: start, Len: n} }
func plain(base, target int) header { return header{baseLen: base, targetLen: target} }

// opCounts parses delta and returns how many COPYs it holds and how many
// target bytes they write.
func opCounts(t *testing.T, delta []byte) (copies, copyBytes int) {
	t.Helper()
	ops, _, _, err := Ops(delta)
	if err != nil {
		t.Fatalf("Ops: %v", err)
	}
	for _, op := range ops {
		if op.Kind == OpCopy {
			copies++
			copyBytes += op.Len
		}
	}
	return copies, copyBytes
}

// The encoder writes exactly what the hand writer writes for its ops, and
// the sections land where the layout says.
func TestWireLayout(t *testing.T) {
	base := []byte("0123456789 a shared base-file run")
	target := []byte("xx 0123456789 a shared base-file run, and a tail")
	delta := mustEncode(t, NewCoder(), base, target)
	if string(delta[:4]) != "VD03" {
		t.Fatalf("magic = %q, want VD03", delta[:4])
	}
	ops, _, _, err := Ops(delta)
	if err != nil {
		t.Fatal(err)
	}
	want := handDelta(header{len(base), len(target), true, checksumOf(target)}, ops...)
	if !bytes.Equal(delta, want) {
		t.Fatalf("encoder wrote %x, the layout gives %x", delta, want)
	}
	s := Sections(delta)
	if got := bytes.Join(s[:], nil); !bytes.Equal(got, delta) {
		t.Fatal("sections do not concatenate to the delta")
	}
	if !bytes.HasSuffix(s[0], []byte("xx , and a tail")) {
		t.Errorf("first section %q does not end with the literals", s[0])
	}
	if want := []byte{opAdd, 3, opCopy, byte(len(base)), opAdd, 12}; !bytes.Equal(s[1], want) {
		t.Errorf("instructions %x, want %x", s[1], want)
	}
	if want := []byte{0}; !bytes.Equal(s[2], want) {
		t.Errorf("addresses %x, want %x", s[2], want)
	}
	for _, junk := range [][]byte{nil, []byte("VD02"), []byte("<html>not a delta</html>")} {
		if s := Sections(junk); !bytes.Equal(s[0], junk) || s[1] != nil || s[2] != nil {
			t.Errorf("Sections(%q) = %q, want it whole", junk, s)
		}
	}
}

// Hand-built deltas the encoder never writes: each section length must
// account for its bytes exactly, and every op must be non-empty and fit.
// Ops checks structure only, so it refuses just the structural cases.
func TestDecodeRejectsMalformedSections(t *testing.T) {
	base := []byte("base-file")
	good := handDelta(plain(len(base), 6), add("ab"), copyOp(0, 4))
	if got, err := Decode(base, good); err != nil || string(got) != "abbase" {
		t.Fatalf("well-formed hand delta: %q, %v", got, err)
	}
	strayAddr := append(handDelta(plain(len(base), 2), add("ab")), 0)
	strayAddr[9]++ // addrLen 0 -> 1: one address no COPY reads
	for _, tc := range []struct {
		name       string
		delta      []byte
		structural bool
	}{
		{"trailing byte", append(bytes.Clone(good), 0), true},
		{"address left over", strayAddr, true},
		{"COPY without address", []byte("VD03\x00\x09\x04\x00\x02\x00\x02\x04"), true},
		{"data left over", []byte("VD03\x00\x09\x01\x05\x02\x00abcde\x01\x01"), true},
		{"unknown opcode", handDelta(plain(len(base), 2), Op{Kind: 3, Len: 2}), true},
		{"VD02 magic", append([]byte("VD02"), good[4:]...), true},
		{"empty ADD", handDelta(plain(len(base), 2), add(""), add("ab")), false},
		{"empty COPY", handDelta(plain(len(base), 2), copyOp(0, 0), add("ab")), false},
		{"ADD past the target", handDelta(plain(len(base), 1), add("ab")), false},
		{"COPY past the base", handDelta(plain(len(base), 10), copyOp(0, 10)), false},
		{"self-copy from nowhere", handDelta(plain(len(base), 4), copyOp(len(base), 4)), false},
	} {
		if _, err := Decode(base, tc.delta); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode err = %v, want ErrCorrupt", tc.name, err)
		}
		if _, _, _, err := Ops(tc.delta); tc.structural && !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Ops err = %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// churnPair is a churn-shaped (base, target) pair on the benchmark's
// catalog site: one department page's anonymous copy, and another item's
// page in the same department as one user sees it five ticks later.
func churnPair(b testing.TB) (base, target []byte) {
	b.Helper()
	site := origin.NewSite(origin.Config{
		Host:          "www.decode.com",
		Depts:         []origin.Dept{{Name: "dept0", Items: 8}},
		TemplateBytes: 30000,
		ItemBytes:     4000,
		ChurnBytes:    1500,
		Personalized:  true,
		Seed:          7,
	})
	render := func(item int, user string, tick int) []byte {
		doc, err := site.Render("dept0", item, user, tick)
		if err != nil {
			b.Fatal(err)
		}
		return doc
	}
	return render(0, "", 0), render(5, "user-17", 5)
}

// BenchmarkDecode prices reconstruction: three section cursors, one bounds
// check per op, then the CRC-32C of the target.
func BenchmarkDecode(b *testing.B) {
	base, target := churnPair(b)
	delta, err := Encode(base, target)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(target)))
	b.ReportAllocs()
	b.ReportMetric(float64(len(delta)), "delta-bytes")
	for i := 0; i < b.N; i++ {
		if _, err := Decode(base, delta); err != nil {
			b.Fatal(err)
		}
	}
}
