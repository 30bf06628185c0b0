package vdelta

import (
	"encoding/binary"
	"fmt"
	"math"
)

// sections are a delta's three streams (see the wire format constants): the
// encoder appends to them, and parseDelta slices them out of a delta.
type sections struct {
	data []byte // ADD literals
	inst []byte // per instruction: opcode, uvarint length
	addr []byte // per COPY: uvarint virtual-source offset
}

func (s *sections) appendAdd(lit []byte) {
	s.inst = binary.AppendUvarint(append(s.inst, opAdd), uint64(len(lit)))
	s.data = append(s.data, lit...)
}

func (s *sections) appendCopy(start, length int) {
	s.inst = binary.AppendUvarint(append(s.inst, opCopy), uint64(length))
	s.addr = binary.AppendUvarint(s.addr, uint64(start))
}

// appendPrefix appends the part of each of h's sections that precedes
// rest, a cursor into h.
func (s *sections) appendPrefix(h, rest sections) {
	s.data = append(s.data, h.data[:len(h.data)-len(rest.data)]...)
	s.inst = append(s.inst, h.inst[:len(h.inst)-len(rest.inst)]...)
	s.addr = append(s.addr, h.addr[:len(h.addr)-len(rest.addr)]...)
}

// appendDelta appends the delta of header h over the sections to dst,
// growing dst at most once, to exactly the delta's size.
func (s *sections) appendDelta(dst []byte, h header) []byte {
	size := 5 + uvarintLen(uint64(h.baseLen)) + uvarintLen(uint64(h.targetLen)) +
		uvarintLen(uint64(len(s.data))) + uvarintLen(uint64(len(s.inst))) + uvarintLen(uint64(len(s.addr))) +
		len(s.data) + len(s.inst) + len(s.addr)
	if h.hasChecksum {
		size += 4
	}
	if cap(dst)-len(dst) < size {
		dst = append(make([]byte, 0, len(dst)+size), dst...)
	}
	var flags byte
	if h.hasChecksum {
		flags |= flagChecksum
	}
	dst = append(dst, magic0, magic1, magic2, magic3, flags)
	dst = binary.AppendUvarint(dst, uint64(h.baseLen))
	dst = binary.AppendUvarint(dst, uint64(h.targetLen))
	if h.hasChecksum {
		dst = binary.BigEndian.AppendUint32(dst, h.checksum)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.data)))
	dst = binary.AppendUvarint(dst, uint64(len(s.inst)))
	dst = binary.AppendUvarint(dst, uint64(len(s.addr)))
	dst = append(dst, s.data...)
	dst = append(dst, s.inst...)
	return append(dst, s.addr...)
}

type header struct {
	baseLen     int
	targetLen   int
	hasChecksum bool
	checksum    uint32
}

// parseDelta splits delta into its header and sections, which alias delta.
// The three section lengths must account for every byte after them.
func parseDelta(delta []byte) (header, sections, error) {
	var h header
	if len(delta) < 5 || delta[0] != magic0 || delta[1] != magic1 || delta[2] != magic2 || delta[3] != magic3 {
		return h, sections{}, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	h.hasChecksum = delta[4]&flagChecksum != 0
	var lens [5]int // baseLen, targetLen, then the three section lengths
	i := 5
	for k := range lens {
		if k == 2 && h.hasChecksum {
			if len(delta)-i < 4 {
				return h, sections{}, fmt.Errorf("%w: truncated checksum", ErrCorrupt)
			}
			h.checksum = binary.BigEndian.Uint32(delta[i:])
			i += 4
		}
		if lens[k], i = uvarint(delta, i); i < 0 {
			return h, sections{}, fmt.Errorf("%w: bad varint in header", ErrCorrupt)
		}
	}
	h.baseLen, h.targetLen = lens[0], lens[1]
	rest := delta[i:]
	dataLen, instLen, addrLen := lens[2], lens[3], lens[4]
	if dataLen > len(rest) || instLen > len(rest)-dataLen || addrLen != len(rest)-dataLen-instLen {
		return h, sections{}, fmt.Errorf("%w: sections of %d+%d+%d bytes in a %d-byte body",
			ErrCorrupt, dataLen, instLen, addrLen, len(rest))
	}
	return h, sections{
		data: rest[:dataLen:dataLen],
		inst: rest[dataLen : dataLen+instLen : dataLen+instLen],
		addr: rest[dataLen+instLen:],
	}, nil
}

// uvarint reads the uvarint at b[i:] and returns it and the offset past it,
// or -1, -1 if it is truncated, overlong or above MaxInt32. A value under
// 128 — most lengths — is one byte and takes the inlined path.
func uvarint(b []byte, i int) (int, int) {
	if i < len(b) && b[i] < 0x80 {
		return int(b[i]), i + 1
	}
	return uvarintSlow(b, i)
}

func uvarintSlow(b []byte, i int) (int, int) {
	if i >= len(b) {
		return -1, -1
	}
	v, n := binary.Uvarint(b[i:])
	if n <= 0 || v > math.MaxInt32 {
		return -1, -1
	}
	return int(v), i + n
}

// Sections splits a delta into the three spans an entropy coder should code
// apart: the header with the ADD literals, the instructions, and the COPY
// addresses. Their concatenation is delta. Anything that does not parse as
// a delta comes back whole, as the first span.
func Sections(delta []byte) [3][]byte {
	_, s, err := parseDelta(delta)
	if err != nil {
		return [3][]byte{delta}
	}
	head := len(delta) - len(s.inst) - len(s.addr)
	return [3][]byte{delta[:head], s.inst, s.addr}
}

// Decode reconstructs the target document from base and delta.
//
// It returns ErrBaseMismatch if base has a different length than the
// base-file the delta was encoded against, ErrCorrupt for malformed input,
// and ErrChecksum if the reconstructed target fails verification. Every
// configuration's deltas decode alike.
func Decode(base, delta []byte) ([]byte, error) {
	hdr, s, err := parseDelta(delta)
	if err != nil {
		return nil, err
	}
	if hdr.baseLen != len(base) {
		return nil, fmt.Errorf("%w: delta was encoded against a %d-byte base, got %d bytes",
			ErrBaseMismatch, hdr.baseLen, len(base))
	}
	if hdr.targetLen > MaxDecodeTarget {
		return nil, fmt.Errorf("%w: declared target of %d bytes exceeds limit", ErrCorrupt, hdr.targetLen)
	}

	// Allocate from actual instruction output, not the header value a
	// forged delta controls; the length check after the loop still enforces
	// the declared length.
	out := make([]byte, 0, min(hdr.targetLen, 1<<20))
	data, inst, addr := s.data, s.inst, s.addr
	for ip := 0; ip < len(inst); {
		kind := inst[ip]
		n, next := uvarint(inst, ip+1)
		// One check bounds every op: a malformed length (-1), an empty op
		// and one past the declared target all fail it.
		if uint(n-1) >= uint(hdr.targetLen-len(out)) {
			return nil, fmt.Errorf("%w: instruction at %d: bad length for %d of %d target bytes written",
				ErrCorrupt, ip, len(out), hdr.targetLen)
		}
		ip = next
		switch kind {
		case opAdd:
			if n > len(data) {
				return nil, fmt.Errorf("%w: ADD of %d bytes overruns the data section", ErrCorrupt, n)
			}
			out = append(out, data[:n]...)
			data = data[n:]

		case opCopy:
			start, next := uvarint(addr, 0)
			if next < 0 {
				return nil, fmt.Errorf("%w: COPY without a valid address", ErrCorrupt)
			}
			addr = addr[next:]
			if start < len(base) {
				// Copy from base; must fit entirely unless it spills into
				// the target prefix region, which the encoder never emits.
				if n > len(base)-start {
					return nil, fmt.Errorf("%w: COPY [%d,%d) overruns base of %d bytes",
						ErrCorrupt, start, start+n, len(base))
				}
				out = append(out, base[start:start+n]...)
				continue
			}
			// Copy from the already-reconstructed target prefix.
			from := start - len(base)
			if from >= len(out) {
				return nil, fmt.Errorf("%w: COPY from unwritten target offset %d (have %d)",
					ErrCorrupt, from, len(out))
			}
			// An overlapping source repeats out[from:len]: appending that
			// whole span each round copies whole periods, doubling it.
			for n > 0 {
				k := min(n, len(out)-from)
				out = append(out, out[from:from+k]...)
				n -= k
			}

		default:
			return nil, fmt.Errorf("%w: unknown opcode 0x%02x", ErrCorrupt, kind)
		}
	}
	switch {
	case len(data) > 0 || len(addr) > 0:
		return nil, fmt.Errorf("%w: %d data and %d address bytes left over", ErrCorrupt, len(data), len(addr))
	case len(out) != hdr.targetLen:
		return nil, fmt.Errorf("%w: reconstructed %d bytes, header says %d", ErrCorrupt, len(out), hdr.targetLen)
	case hdr.hasChecksum && checksumOf(out) != hdr.checksum:
		return nil, ErrChecksum
	}
	return out, nil
}
