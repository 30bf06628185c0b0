// Package vcdiff implements the VCDIFF generic differencing format of
// RFC 3284 (Korn & Vo) — reference [12] of the paper and the
// standardization of the Vdelta lineage the paper builds on.
//
// The package provides an encoder that translates deltas produced by the
// internal vdelta codec into VCDIFF streams, so the experiments can set the
// standard format beside the vdelta wire format (cmd/experiments -table
// formats). Delta-servers speak only vdelta. The package's tests hold a
// decoder for the default code table, the encoder's round-trip oracle.
package vcdiff

// Instruction types (RFC 3284 section 5.4).
const (
	instNoop = 0
	instAdd  = 1
	instRun  = 2
	instCopy = 3
)

// Address cache parameters of the default code table (section 5.1).
const (
	sNear = 4
	sSame = 3
)

// Copy modes (section 5.3): VCD_SELF, VCD_HERE, near modes, same modes.
const (
	modeSelf = 0
	modeHere = 1
	// modes 2..2+sNear-1 are near modes; 2+sNear..2+sNear+sSame-1 same.
)

// codeEntry is one (possibly paired) instruction of the code table.
type codeEntry struct {
	type1, size1, mode1 byte
	type2, size2, mode2 byte
}

// defaultCodeTable is the 256-entry table of RFC 3284 section 5.6.
var defaultCodeTable = buildDefaultCodeTable()

func buildDefaultCodeTable() [256]codeEntry {
	var t [256]codeEntry
	index := 0

	// 1. RUN 0 NOOP.
	t[index] = codeEntry{type1: instRun}
	index++

	// 2. ADD sizes 0, 1..17.
	for size := 0; size <= 17; size++ {
		t[index] = codeEntry{type1: instAdd, size1: byte(size)}
		index++
	}

	// 3-4. COPY sizes 0, 4..18 for each mode 0..8.
	for mode := 0; mode < 2+sNear+sSame; mode++ {
		t[index] = codeEntry{type1: instCopy, mode1: byte(mode)}
		index++
		for size := 4; size <= 18; size++ {
			t[index] = codeEntry{type1: instCopy, size1: byte(size), mode1: byte(mode)}
			index++
		}
	}

	// 5. ADD [1,4] + COPY [4,6] modes 0..5.
	for mode := 0; mode <= 5; mode++ {
		for addSize := 1; addSize <= 4; addSize++ {
			for copySize := 4; copySize <= 6; copySize++ {
				t[index] = codeEntry{
					type1: instAdd, size1: byte(addSize),
					type2: instCopy, size2: byte(copySize), mode2: byte(mode),
				}
				index++
			}
		}
	}

	// 6. ADD [1,4] + COPY 4 modes 6..8.
	for mode := 6; mode <= 8; mode++ {
		for addSize := 1; addSize <= 4; addSize++ {
			t[index] = codeEntry{
				type1: instAdd, size1: byte(addSize),
				type2: instCopy, size2: 4, mode2: byte(mode),
			}
			index++
		}
	}

	// 7. COPY 4 modes 0..8 + ADD 1.
	for mode := 0; mode <= 8; mode++ {
		t[index] = codeEntry{
			type1: instCopy, size1: 4, mode1: byte(mode),
			type2: instAdd, size2: 1,
		}
		index++
	}

	if index != 256 {
		// The construction above is fixed by the RFC; a mismatch is a
		// programming error caught at package init.
		panic("vcdiff: default code table has wrong size")
	}
	return t
}

// addressCache implements the near/same address caches of section 5.1.
type addressCache struct {
	near     [sNear]int
	nextSlot int
	same     [sSame * 256]int
}

func newAddressCache() *addressCache {
	return &addressCache{}
}

// update records an address after each COPY, per section 5.1.
func (c *addressCache) update(addr int) {
	c.near[c.nextSlot] = addr
	c.nextSlot = (c.nextSlot + 1) % sNear
	c.same[addr%(sSame*256)] = addr
}

// encodeMode returns the cheapest (mode, value, isByte) encoding for addr
// with the current cache state; here is the current position in the
// source-plus-target address space.
func (c *addressCache) encodeMode(addr, here int) (mode int, value int, sameByte bool) {
	// VCD_SELF: the address itself.
	bestMode, bestValue := modeSelf, addr
	// VCD_HERE: distance back from the current position.
	if here-addr >= 0 && here-addr < bestValue {
		bestMode, bestValue = modeHere, here-addr
	}
	// Near modes: distance from a cached address (must be non-negative).
	for i := 0; i < sNear; i++ {
		if d := addr - c.near[i]; d >= 0 && d < bestValue {
			bestMode, bestValue = 2+i, d
		}
	}
	// Same modes: exact cache hit, encoded as one byte.
	if c.same[addr%(sSame*256)] == addr {
		return 2 + sNear + addr%(sSame*256)/256, addr % 256, true
	}
	return bestMode, bestValue, false
}
