package store

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzSpillRoundTrip drives arbitrary class states through the spill
// codec and asserts the evict→spill→fault-in contract: byte-identical
// bases and a monotone (never decreasing) version counter.
func FuzzSpillRoundTrip(f *testing.F) {
	f.Add([]byte("seed"), uint16(3), uint8(2), uint8(1), uint8(1))
	f.Add(bytes.Repeat([]byte("abc"), 200), uint16(65000), uint8(4), uint8(3), uint8(0))
	f.Add([]byte{}, uint16(0), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed []byte, ver uint16, nBases, nCands, nRefs uint8) {
		// Derive deterministic, bounded state from the fuzz input.
		doc := func(i int) []byte {
			if len(seed) == 0 {
				return nil
			}
			out := make([]byte, 0, len(seed)+8)
			out = binary.AppendUvarint(out, uint64(i))
			rot := i % len(seed)
			out = append(out, seed[rot:]...)
			return append(out, seed[:rot]...)
		}
		rec := ClassRecord{
			Key:             "fuzz#1",
			DistVersion:     int(ver),
			SelectorVersion: int(ver),
			SelectorTag:     string(seed[:min(len(seed), 32)]),
			SelectorBase:    doc(0),
		}
		for i := 0; i < int(nBases%8); i++ {
			rec.Bases = append(rec.Bases, VersionedBlob{Version: int(ver) + i, Bytes: doc(i + 1)})
		}
		for i := 0; i < int(nCands%8); i++ {
			rec.Candidates = append(rec.Candidates, TaggedDoc{Tag: string(doc(i)), Bytes: doc(i + 100)})
		}
		for i := 0; i < int(nRefs%8); i++ {
			rec.Refs = append(rec.Refs, TaggedDoc{Tag: string(doc(i)), Bytes: doc(i + 200)})
		}
		for i := 0; i+1 < len(rec.Bases); i++ {
			rec.Edges = append(rec.Edges, EdgeBlob{
				From:    rec.Bases[i].Version,
				To:      rec.Bases[i+1].Version,
				Payload: doc(i + 300),
				Gzipped: i%2 == 0,
				RawLen:  len(doc(i + 300)),
			})
		}

		payload, err := appendRecordPayload(nil, &rec)
		if err != nil {
			t.Fatalf("encode rejected a well-formed record: %v", err)
		}
		got, err := decodeRecordPayload(payload)
		if err != nil {
			t.Fatalf("decode of fresh payload failed: %v", err)
		}
		if got.SelectorVersion < rec.SelectorVersion || got.DistVersion != rec.DistVersion {
			t.Fatalf("version counter regressed: got sel=%d dist=%d, want sel=%d dist=%d",
				got.SelectorVersion, got.DistVersion, rec.SelectorVersion, rec.DistVersion)
		}
		if !bytes.Equal(got.SelectorBase, rec.SelectorBase) {
			t.Fatal("selector base not byte-identical")
		}
		if len(got.Bases) != len(rec.Bases) {
			t.Fatalf("base count %d != %d", len(got.Bases), len(rec.Bases))
		}
		for i := range rec.Bases {
			if got.Bases[i].Version != rec.Bases[i].Version {
				t.Fatalf("base %d version %d != %d", i, got.Bases[i].Version, rec.Bases[i].Version)
			}
			if !bytes.Equal(got.Bases[i].Bytes, rec.Bases[i].Bytes) {
				t.Fatalf("base %d bytes not identical", i)
			}
		}
		if len(got.Candidates) != len(rec.Candidates) || len(got.Refs) != len(rec.Refs) {
			t.Fatal("sample counts changed")
		}
		for i := range rec.Candidates {
			if got.Candidates[i].Tag != rec.Candidates[i].Tag || !bytes.Equal(got.Candidates[i].Bytes, rec.Candidates[i].Bytes) {
				t.Fatalf("candidate %d not identical", i)
			}
		}
		if len(got.Edges) != len(rec.Edges) {
			t.Fatalf("edge count %d != %d", len(got.Edges), len(rec.Edges))
		}
		for i := range rec.Edges {
			g, w := got.Edges[i], rec.Edges[i]
			if g.From != w.From || g.To != w.To || g.Gzipped != w.Gzipped || g.RawLen != w.RawLen || !bytes.Equal(g.Payload, w.Payload) {
				t.Fatalf("edge %d not identical", i)
			}
		}

		// Decoding arbitrary bytes must never panic; errors are fine.
		decodeRecordPayload(seed)
		if len(payload) > 1 {
			decodeRecordPayload(payload[:len(payload)/2])
		}
	})
}
