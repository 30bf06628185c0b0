package gzipx

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"
	"slices"
)

// AppendDelta appends to dst a gzip member holding data as one final
// literal-only dynamic-Huffman deflate block, and returns the extended slice.
// It is the codec for vdelta payloads: vdelta has already turned every repeat
// against the base and the target's prefix into a copy, so LZ77 would find
// about 1% more. The member's size is known before anything is written: when
// it would not be shorter than data, dst comes back unextended; otherwise dst
// grows at most once, to exactly that size. Any gzip reader inflates it.
func AppendDelta(dst, data []byte) []byte {
	var c deltaCoder
	if size := c.plan(data); size < len(data) {
		return c.write(dst, data, size)
	}
	return dst
}

const (
	maxLitBits = 15  // deflate's limit on literal/length code lengths
	maxCLBits  = 7   // and on the code-length code's
	endOfBlock = 256 // the literal/length symbol that closes the block
	clSymbols  = 19  // code-length alphabet: lengths 0-15, repeats 16-18
)

// The code-length code's lengths are sent in clOrder (RFC 1951 §3.2.7);
// clExtra is the number of extra bits after each repeat symbol.
var (
	clOrder = [clSymbols]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
	clExtra = [clSymbols]uint8{16: 2, 17: 3, 18: 7}
)

// deltaCoder is one AppendDelta call's state; it lives on the caller's
// stack. plan builds the codes and sizes the member; write emits it.
type deltaCoder struct {
	freq    [endOfBlock + 1]uint64 // byte histogram, plus the one end-of-block
	lit     [endOfBlock + 1]uint8  // literal code lengths
	litCode [endOfBlock + 1]uint16
	clFreq  [clSymbols]uint64
	clLen   [clSymbols]uint8
	clCode  [clSymbols]uint16
	tokens  [endOfBlock + 2]uint16 // code-length symbols, extra bits <<8
	ntok    int
	hclen   int // code-length code lengths sent
}

// plan builds both codes for data and returns the member's size in bytes.
func (c *deltaCoder) plan(data []byte) int {
	for _, b := range data {
		c.freq[b]++
	}
	c.freq[endOfBlock] = 1
	huffCode(c.freq[:], c.lit[:], c.litCode[:], maxLitBits)

	// The literal lengths and the one distance length form one sequence,
	// run-length coded with symbols 16-18; runs may cross the boundary.
	seq := [endOfBlock + 2]uint8{endOfBlock + 1: 1} // one distance code, never used
	copy(seq[:], c.lit[:])
	for i := 0; i < len(seq); {
		v, r := seq[i], 1
		for i+r < len(seq) && seq[i+r] == v {
			r++
		}
		i += r
		if v == 0 {
			for ; r >= 11; r -= min(r, 138) {
				c.token(18, min(r, 138)-11)
			}
			if r >= 3 {
				c.token(17, r-3)
				r = 0
			}
		} else {
			c.token(v, 0)
			for r--; r >= 3; r -= min(r, 6) {
				c.token(16, min(r, 6)-3)
			}
		}
		for ; r > 0; r-- {
			c.token(v, 0)
		}
	}
	huffCode(c.clFreq[:], c.clLen[:], c.clCode[:], maxCLBits)
	for c.hclen = clSymbols; c.hclen > 4 && c.clLen[clOrder[c.hclen-1]] == 0; c.hclen-- {
	}

	// BFINAL, BTYPE, HLIT, HDIST, HCLEN, then the code-length code.
	nbits := 3 + 5 + 5 + 4 + 3*c.hclen
	for _, t := range c.tokens[:c.ntok] {
		nbits += int(c.clLen[t&0xff] + clExtra[t&0xff])
	}
	for s, f := range c.freq {
		nbits += int(f) * int(c.lit[s])
	}
	return 10 + (nbits+7)/8 + 8
}

func (c *deltaCoder) token(sym uint8, extra int) {
	c.tokens[c.ntok] = uint16(sym) | uint16(extra)<<8
	c.ntok++
	c.clFreq[sym]++
}

// write appends the member plan sized to dst.
func (c *deltaCoder) write(dst, data []byte, size int) []byte {
	if cap(dst)-len(dst) < size {
		dst = append(make([]byte, 0, len(dst)+size), dst...)
	}
	dst, out := dst[:len(dst)+size], dst[len(dst):len(dst)+size]
	// ID1 ID2 CM=deflate FLG MTIME×4 XFL OS=unknown, as compress/gzip writes.
	copy(out, []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 255})

	w := bitWriter{out: out, pos: 10}
	// BFINAL=1, BTYPE=10 (dynamic Huffman), HLIT-257=0, HDIST-1=0, HCLEN-4.
	w.put(1|2<<1|uint64(c.hclen-4)<<13, 17)
	for _, s := range clOrder[:c.hclen] {
		w.put(uint64(c.clLen[s]), 3)
	}
	for _, t := range c.tokens[:c.ntok] {
		s := t & 0xff
		w.put(uint64(c.clCode[s]), uint(c.clLen[s]))
		if n := clExtra[s]; n > 0 {
			w.put(uint64(t>>8), uint(n))
		}
	}
	for _, b := range data {
		w.put(uint64(c.litCode[b]), uint(c.lit[b]))
	}
	w.put(uint64(c.litCode[endOfBlock]), uint(c.lit[endOfBlock]))
	for ; w.n > 0; w.n -= min(w.n, 8) {
		out[w.pos] = byte(w.acc)
		w.acc >>= 8
		w.pos++
	}
	if w.pos != len(out)-8 {
		panic("gzipx: AppendDelta wrote a different size than it planned")
	}
	binary.LittleEndian.PutUint32(out[w.pos:], crc32.ChecksumIEEE(data))
	binary.LittleEndian.PutUint32(out[w.pos+4:], uint32(len(data)))
	return dst
}

// bitWriter packs deflate's LSB-first bit stream into out. A flush stores 8
// bytes to commit 6; the 8-byte trailer leaves room for the 2 past the body.
type bitWriter struct {
	out []byte
	pos int
	acc uint64
	n   uint
}

func (w *bitWriter) put(v uint64, n uint) {
	w.acc |= v << w.n
	w.n += n
	if w.n >= 48 {
		binary.LittleEndian.PutUint64(w.out[w.pos:], w.acc)
		w.pos += 6
		w.acc >>= 48
		w.n -= 48
	}
}

// huffCode sets lens[s] and codes[s] (bit-reversed) to symbol s's entry in a
// canonical Huffman code for freq limited to maxBits, length 0 if unused. A
// lone used symbol gets a one-bit code, which inflaters accept.
func huffCode(freq []uint64, lens []uint8, codes []uint16, maxBits int) {
	const symBits = 9
	var keys [endOfBlock + 1]uint64 // freq<<symBits | symbol, sorted below
	n := 0
	for s, f := range freq {
		if f > 0 {
			keys[n] = f<<symBits | uint64(s)
			n++
		}
	}
	slices.Sort(keys[:n])

	// Two-queue construction: leaves in key order, internal nodes in order
	// of creation, which is also order of weight. Node n-2 is the root.
	var nodeW [endOfBlock]uint64
	var leafUp, nodeUp [endOfBlock + 1]int16
	for j, li, ni := 0, 0, 0; j < n-1; j++ {
		for range 2 {
			if li < n && (ni >= j || keys[li]>>symBits <= nodeW[ni]) {
				nodeW[j] += keys[li] >> symBits
				leafUp[li] = int16(j)
				li++
			} else {
				nodeW[j] += nodeW[ni]
				nodeUp[ni] = int16(j)
				ni++
			}
		}
	}
	var depth [endOfBlock]uint16
	for j := n - 3; j >= 0; j-- {
		depth[j] = depth[nodeUp[j]] + 1
	}
	// Clamping overflowed leaves to maxBits over-subscribes the code. Repair
	// as zlib's gen_bitlen does, one unit of 2^-maxBits at a time: drop a
	// maxBits leaf and hang it, as a sibling, under the deepest shorter leaf.
	var count [maxLitBits + 1]int
	kraft := 0
	for i := range n {
		d := min(int(depth[leafUp[i]])+1, maxBits)
		count[d]++
		kraft += 1 << (maxBits - d)
	}
	for ; kraft > 1<<maxBits; kraft-- {
		count[maxBits]--
		b := maxBits - 1
		for count[b] == 0 {
			b--
		}
		count[b]--
		count[b+1] += 2
	}
	// The least frequent symbols take the longest codes; codes are then
	// assigned in symbol order within each length (RFC 1951 §3.2.2).
	clear(lens)
	var next [maxLitBits + 1]uint16
	for i, b := 0, maxBits; b > 0; b-- {
		for range count[b] {
			lens[keys[i]&(1<<symBits-1)] = uint8(b)
			i++
		}
	}
	for b := 1; b < maxBits; b++ {
		next[b+1] = (next[b] + uint16(count[b])) << 1
	}
	for s, l := range lens {
		if l > 0 {
			codes[s] = bits.Reverse16(next[l]) >> (16 - l)
			next[l]++
		}
	}
}
