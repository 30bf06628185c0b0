package vdelta

import "fmt"

// OpKind distinguishes delta instructions.
type OpKind int

const (
	// OpAdd carries literal bytes.
	OpAdd OpKind = iota + 1
	// OpCopy copies Len bytes from virtual-source offset Start (the base
	// followed by the already-reconstructed target prefix).
	OpCopy
)

// Op is one decoded delta instruction.
type Op struct {
	Kind  OpKind
	Data  []byte // literal bytes (OpAdd); aliases the delta buffer
	Start int    // virtual-source offset (OpCopy)
	Len   int    // bytes the op writes: len(Data) for OpAdd, the copy length for OpCopy
}

// Ops parses a delta into its instruction list without applying it. The
// returned literal slices alias the delta buffer. Along with the ops it
// returns the base and target lengths recorded in the header.
func Ops(delta []byte) ([]Op, int, int, error) {
	hdr, s, err := parseDelta(delta)
	if err != nil {
		return nil, 0, 0, err
	}
	var ops []Op
	for len(s.inst) > 0 {
		var op Op
		if err := s.next(&op); err != nil {
			return nil, 0, 0, err
		}
		ops = append(ops, op)
	}
	if len(s.data) > 0 || len(s.addr) > 0 {
		return nil, 0, 0, fmt.Errorf("%w: %d data and %d address bytes left over", ErrCorrupt, len(s.data), len(s.addr))
	}
	return ops, hdr.baseLen, hdr.targetLen, nil
}

// next consumes the instruction at the head of s.inst, with its literals or
// its address, into op. Callers stop when s.inst is empty.
func (s *sections) next(op *Op) error {
	kind := s.inst[0]
	n, i := uvarint(s.inst, 1)
	if i < 0 {
		return fmt.Errorf("%w: bad instruction length", ErrCorrupt)
	}
	s.inst = s.inst[i:]
	switch kind {
	case opAdd:
		if n > len(s.data) {
			return fmt.Errorf("%w: ADD of %d bytes overruns the data section", ErrCorrupt, n)
		}
		*op = Op{Kind: OpAdd, Data: s.data[:n], Len: n}
		s.data = s.data[n:]
		return nil
	case opCopy:
		start, j := uvarint(s.addr, 0)
		if j < 0 {
			return fmt.Errorf("%w: COPY without a valid address", ErrCorrupt)
		}
		s.addr = s.addr[j:]
		*op = Op{Kind: OpCopy, Start: start, Len: n}
		return nil
	}
	return fmt.Errorf("%w: unknown opcode 0x%02x", ErrCorrupt, kind)
}
