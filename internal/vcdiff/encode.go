package vcdiff

import (
	"fmt"

	"cbde/internal/vdelta"
)

// Encode produces an RFC 3284 VCDIFF delta transforming source into target.
// Match-finding is delegated to the internal vdelta codec; its instruction
// stream translates directly because both formats address a virtual source
// of base-then-target-prefix. The output is one window with a full-source
// segment, default code table, and no secondary compression.
func Encode(source, target []byte) ([]byte, error) {
	raw, err := vdelta.Encode(source, target)
	if err != nil {
		return nil, fmt.Errorf("vcdiff: find matches: %w", err)
	}
	ops, _, _, err := vdelta.Ops(raw)
	if err != nil {
		return nil, fmt.Errorf("vcdiff: parse internal delta: %w", err)
	}
	return encodeOps(ops, len(source), len(target)), nil
}

// sections accumulates the three per-window byte streams.
type sections struct {
	data  []byte
	insts []byte
	addrs []byte
	cache *addressCache
	// targetPos tracks "here" for address encoding.
	sourceLen, targetPos int
}

// pushAdd appends an un-paired ADD instruction.
func (s *sections) pushAdd(lit []byte) {
	s.data = append(s.data, lit...)
	if len(lit) >= 1 && len(lit) <= 17 {
		s.insts = append(s.insts, byte(1+len(lit)))
	} else {
		s.insts = append(s.insts, 1) // ADD size 0: explicit size follows
		s.insts = appendVarint(s.insts, len(lit))
	}
	s.targetPos += len(lit)
}

// pushCopy appends an un-paired COPY instruction.
func (s *sections) pushCopy(start, length int) {
	here := s.sourceLen + s.targetPos
	mode, value, sameByte := s.cache.encodeMode(start, here)
	base := 19 + 16*mode
	if length >= 4 && length <= 18 {
		s.insts = append(s.insts, byte(base+length-3))
	} else {
		s.insts = append(s.insts, byte(base))
		s.insts = appendVarint(s.insts, length)
	}
	s.pushAddr(value, sameByte)
	s.cache.update(start)
	s.targetPos += length
}

// pushAddPair appends a paired ADD+COPY entry (code table groups 5 and 6).
func (s *sections) pushAddPair(lit []byte, start, length int) {
	here := s.sourceLen + s.targetPos + len(lit)
	mode, value, sameByte := s.cache.encodeMode(start, here)

	var code int
	switch {
	case mode <= 5 && length >= 4 && length <= 6:
		code = 163 + mode*12 + (len(lit)-1)*3 + (length - 4)
	case mode >= 6 && length == 4:
		code = 235 + (mode-6)*4 + (len(lit) - 1)
	default:
		// No paired entry exists for this shape.
		s.pushAdd(lit)
		s.pushCopy(start, length)
		return
	}
	s.data = append(s.data, lit...)
	s.insts = append(s.insts, byte(code))
	s.pushAddr(value, sameByte)
	s.cache.update(start)
	s.targetPos += len(lit) + length
}

func (s *sections) pushAddr(value int, sameByte bool) {
	if sameByte {
		s.addrs = append(s.addrs, byte(value))
		return
	}
	s.addrs = appendVarint(s.addrs, value)
}

// encodeOps serializes the instruction list as one VCDIFF window.
func encodeOps(ops []vdelta.Op, sourceLen, targetLen int) []byte {
	s := &sections{cache: newAddressCache(), sourceLen: sourceLen}

	for i := 0; i < len(ops); i++ {
		op := ops[i]
		if op.Kind == vdelta.OpAdd {
			// Pair a short ADD with the following COPY when the code table
			// has a combined entry (falls back to two entries otherwise).
			if len(op.Data) >= 1 && len(op.Data) <= 4 && i+1 < len(ops) && ops[i+1].Kind == vdelta.OpCopy {
				next := ops[i+1]
				s.pushAddPair(op.Data, next.Start, next.Len)
				i++
				continue
			}
			s.pushAdd(op.Data)
			continue
		}
		s.pushCopy(op.Start, op.Len)
	}

	// Assemble the window (section 4.2).
	var win []byte
	win = append(win, vcdSource)
	win = appendVarint(win, sourceLen)
	win = appendVarint(win, 0) // segment position

	body := appendVarint(nil, targetLen)
	body = append(body, 0) // delta indicator
	body = appendVarint(body, len(s.data))
	body = appendVarint(body, len(s.insts))
	body = appendVarint(body, len(s.addrs))
	body = append(body, s.data...)
	body = append(body, s.insts...)
	body = append(body, s.addrs...)

	win = appendVarint(win, len(body))
	win = append(win, body...)

	out := make([]byte, 0, len(win)+8)
	out = append(out, headerMagic...)
	out = append(out, 0) // header indicator
	out = append(out, win...)
	return out
}
