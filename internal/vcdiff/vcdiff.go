package vcdiff

// Header bytes (RFC 3284 section 4.1): "VCD" with high bits set, version 0.
var headerMagic = []byte{0xD6, 0xC3, 0xC4, 0x00}

// vcdSource is the window indicator bit (section 4.2) of a window that
// copies from the source.
const vcdSource = 0x01

// Integers in VCDIFF are variable-length, base-128, big-endian with a
// continuation bit (section 2) — note the opposite byte order from Go's
// encoding/binary varints.

func appendVarint(dst []byte, v int) []byte {
	if v < 0 {
		v = 0
	}
	var buf [10]byte
	i := len(buf)
	i--
	buf[i] = byte(v & 0x7f)
	v >>= 7
	for v > 0 {
		i--
		buf[i] = byte(v&0x7f) | 0x80
		v >>= 7
	}
	return append(dst, buf[i:]...)
}
