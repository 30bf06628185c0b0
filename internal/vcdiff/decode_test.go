package vcdiff

import (
	"errors"
	"fmt"
)

// Decode is Encode's round-trip oracle; nothing outside the tests parses
// VCDIFF.

// vcdTarget is the window indicator bit (section 4.2) of a window that
// copies from the target, which Encode never emits.
const vcdTarget = 0x02

// maxWindowTarget bounds the target bytes one window may declare. A forged
// stream can otherwise declare a multi-gigabyte window and bomb the decoder
// with a single allocation; web documents are nowhere near this limit.
const maxWindowTarget = 1 << 28 // 256 MiB

// maxVarint bounds decoded integers; RFC 3284 values fit 32 bits here.
// Window and section sizes are bounded separately and much lower.
const maxVarint = 1<<32 - 1

// Errors returned by Decode.
var (
	// errCorrupt reports a malformed VCDIFF stream.
	errCorrupt = errors.New("vcdiff: corrupt stream")
	// errUnsupported reports a well-formed stream using features outside
	// this implementation (secondary compression, application code
	// tables).
	errUnsupported = errors.New("vcdiff: unsupported feature")
)

func varintLen(v int) int {
	n := 1
	for v >>= 7; v > 0; v >>= 7 {
		n++
	}
	return n
}

// byteReader walks a byte slice with error-sticky reads.
type byteReader struct {
	data []byte
	pos  int
}

func (r *byteReader) readByte() (byte, error) {
	if r.pos >= len(r.data) {
		return 0, fmt.Errorf("%w: truncated", errCorrupt)
	}
	b := r.data[r.pos]
	r.pos++
	return b, nil
}

func (r *byteReader) readVarint() (int, error) {
	v := 0
	for i := 0; ; i++ {
		if i > 9 {
			return 0, fmt.Errorf("%w: varint too long", errCorrupt)
		}
		b, err := r.readByte()
		if err != nil {
			return 0, err
		}
		v = v<<7 | int(b&0x7f)
		if v > maxVarint {
			return 0, fmt.Errorf("%w: varint out of range", errCorrupt)
		}
		if b&0x80 == 0 {
			return v, nil
		}
	}
}

func (r *byteReader) readBytes(n int) ([]byte, error) {
	if n < 0 || r.pos+n > len(r.data) {
		return nil, fmt.Errorf("%w: truncated section", errCorrupt)
	}
	out := r.data[r.pos : r.pos+n]
	r.pos += n
	return out, nil
}

func (r *byteReader) remaining() int { return len(r.data) - r.pos }

// Decode applies a VCDIFF delta to source and returns the target. It
// supports the default code table without secondary compression — the
// profile Encode produces and the common interoperable subset.
func Decode(source, delta []byte) ([]byte, error) {
	r := &byteReader{data: delta}
	hdr, err := r.readBytes(4)
	if err != nil {
		return nil, err
	}
	for i, want := range headerMagic {
		if hdr[i] != want {
			return nil, fmt.Errorf("%w: bad magic/version", errCorrupt)
		}
	}
	hdrIndicator, err := r.readByte()
	if err != nil {
		return nil, err
	}
	if hdrIndicator&0x01 != 0 || hdrIndicator&0x02 != 0 {
		return nil, fmt.Errorf("%w: secondary compression or custom code table", errUnsupported)
	}
	if hdrIndicator&0x04 != 0 {
		// Application header: skip it.
		n, err := r.readVarint()
		if err != nil {
			return nil, err
		}
		if _, err := r.readBytes(n); err != nil {
			return nil, err
		}
	}

	var target []byte
	for r.remaining() > 0 {
		window, err := decodeWindow(r, source, len(target))
		if err != nil {
			return nil, err
		}
		target = append(target, window...)
	}
	return target, nil
}

// decodeWindow decodes one window (section 4.2/4.3).
func decodeWindow(r *byteReader, source []byte, targetSoFar int) ([]byte, error) {
	winIndicator, err := r.readByte()
	if err != nil {
		return nil, err
	}
	if winIndicator&vcdTarget != 0 {
		return nil, fmt.Errorf("%w: VCD_TARGET windows", errUnsupported)
	}
	var segment []byte
	if winIndicator&vcdSource != 0 {
		segLen, err := r.readVarint()
		if err != nil {
			return nil, err
		}
		segPos, err := r.readVarint()
		if err != nil {
			return nil, err
		}
		if segPos < 0 || segLen < 0 || segPos+segLen > len(source) {
			return nil, fmt.Errorf("%w: source segment [%d,%d) outside %d-byte source",
				errCorrupt, segPos, segPos+segLen, len(source))
		}
		segment = source[segPos : segPos+segLen]
	}

	if _, err := r.readVarint(); err != nil { // length of the delta encoding
		return nil, err
	}
	targetLen, err := r.readVarint()
	if err != nil {
		return nil, err
	}
	if targetLen > maxWindowTarget {
		return nil, fmt.Errorf("%w: window target of %d bytes exceeds limit", errUnsupported, targetLen)
	}
	deltaIndicator, err := r.readByte()
	if err != nil {
		return nil, err
	}
	if deltaIndicator != 0 {
		return nil, fmt.Errorf("%w: compressed delta sections", errUnsupported)
	}
	dataLen, err := r.readVarint()
	if err != nil {
		return nil, err
	}
	instLen, err := r.readVarint()
	if err != nil {
		return nil, err
	}
	addrLen, err := r.readVarint()
	if err != nil {
		return nil, err
	}
	dataSec, err := r.readBytes(dataLen)
	if err != nil {
		return nil, err
	}
	instSec, err := r.readBytes(instLen)
	if err != nil {
		return nil, err
	}
	addrSec, err := r.readBytes(addrLen)
	if err != nil {
		return nil, err
	}

	return applyWindow(segment, targetLen, dataSec, instSec, addrSec)
}

// applyWindow runs the instruction stream of one window.
func applyWindow(segment []byte, targetLen int, dataSec, instSec, addrSec []byte) ([]byte, error) {
	data := &byteReader{data: dataSec}
	insts := &byteReader{data: instSec}
	addrs := &byteReader{data: addrSec}
	cache := newAddressCache()

	// Allocate from actual instruction output, not the attacker-controlled
	// header value; the final length check still enforces targetLen.
	capHint := targetLen
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	out := make([]byte, 0, capHint)
	for insts.remaining() > 0 {
		code, err := insts.readByte()
		if err != nil {
			return nil, err
		}
		entry := defaultCodeTable[code]
		for half := 0; half < 2; half++ {
			typ, size, mode := entry.type1, entry.size1, entry.mode1
			if half == 1 {
				typ, size, mode = entry.type2, entry.size2, entry.mode2
			}
			if typ == instNoop {
				continue
			}
			n := int(size)
			if n == 0 {
				if n, err = insts.readVarint(); err != nil {
					return nil, err
				}
			}
			switch typ {
			case instAdd:
				lit, err := data.readBytes(n)
				if err != nil {
					return nil, err
				}
				out = append(out, lit...)
			case instRun:
				b, err := data.readByte()
				if err != nil {
					return nil, err
				}
				for i := 0; i < n; i++ {
					out = append(out, b)
				}
			case instCopy:
				here := len(segment) + len(out)
				addr, err := cache.decodeAddr(int(mode), here, addrs.readVarint, addrs.readByte)
				if err != nil {
					return nil, err
				}
				// The copied region may overlap the data being produced
				// (run-length behaviour, RFC 3284 section 3): only the
				// start must precede the current position.
				if addr < 0 || (n > 0 && addr >= here) {
					return nil, fmt.Errorf("%w: COPY from %d at here=%d", errCorrupt, addr, here)
				}
				// Copy byte-by-byte: the region may overlap the output
				// being produced (run-length behaviour).
				for i := 0; i < n; i++ {
					p := addr + i
					if p < len(segment) {
						out = append(out, segment[p])
					} else {
						out = append(out, out[p-len(segment)])
					}
				}
				cache.update(addr)
			default:
				return nil, fmt.Errorf("%w: bad instruction type %d", errCorrupt, typ)
			}
		}
	}
	if len(out) != targetLen {
		return nil, fmt.Errorf("%w: window produced %d bytes, header says %d", errCorrupt, len(out), targetLen)
	}
	return out, nil
}

// decodeAddr decodes an address for the given mode, per section 5.3.
func (c *addressCache) decodeAddr(mode, here int, readVarint func() (int, error), readByte func() (byte, error)) (int, error) {
	switch {
	case mode == modeSelf:
		return readVarint()
	case mode == modeHere:
		v, err := readVarint()
		if err != nil {
			return 0, err
		}
		return here - v, nil
	case mode >= 2 && mode < 2+sNear:
		v, err := readVarint()
		if err != nil {
			return 0, err
		}
		return c.near[mode-2] + v, nil
	default: // same modes
		m := mode - (2 + sNear)
		b, err := readByte()
		if err != nil {
			return 0, err
		}
		return c.same[m*256+int(b)], nil
	}
}
