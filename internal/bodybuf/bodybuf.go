// Package bodybuf reads message bodies into bounded, reusable buffers, so a
// hop touches every document byte once: no doubling growth when the sender
// stated a length, no allocation at all into a warm pooled buffer, and never
// more than a fixed bound buffered whatever the sender does.
package bodybuf

import (
	"errors"
	"io"
	"sync"
)

// ErrTooLarge reports a body longer than the caller's bound.
var ErrTooLarge = errors.New("bodybuf: body exceeds bound")

// Read appends r, read to EOF, to dst and returns the extended slice. hint is
// the length the sender stated (negative when it stated none): dst grows to
// it once, exactly, so a truthful hint costs a single allocation — or none
// when dst already has the room. A body of more than limit bytes ends the
// read with ErrTooLarge: at once when the hint already says so, otherwise at
// limit+1 bytes, which stay appended so a relay can forward them ahead of the
// rest of r.
func Read(dst []byte, r io.Reader, hint int64, limit int) ([]byte, error) {
	if hint > int64(limit) {
		return dst, ErrTooLarge
	}
	base := len(dst)
	if need := base + int(hint); need > cap(dst) {
		dst = regrow(dst, need)
	}
	for {
		if len(dst) == cap(dst) {
			// No EOF where the hint put it, or no hint: double, but never
			// past the one byte beyond the bound that proves the overrun.
			dst = regrow(dst, cap(dst)+min(max(cap(dst), 512), base+limit+1-cap(dst)))
		}
		n, err := r.Read(dst[len(dst):min(cap(dst), base+limit+1)])
		dst = dst[:len(dst)+n]
		switch {
		case len(dst)-base > limit:
			return dst, ErrTooLarge
		case err == io.EOF:
			return dst, nil
		case err != nil:
			return dst, err
		}
	}
}

// regrow moves dst into a buffer of exactly newCap bytes (append would round
// up by its amortisation factor).
func regrow(dst []byte, newCap int) []byte {
	return append(make([]byte, 0, newCap), dst...)
}

// maxPooled is the largest buffer Release keeps: one huge body must not pin
// its memory in the pool.
const maxPooled = 1 << 20

// Buf is a pooled buffer for bytes that do not outlive the call that read
// them. B keeps its capacity across uses, so it converges on the size the
// traffic needs.
type Buf struct{ B []byte }

var pool = sync.Pool{New: func() any { return new(Buf) }}

// Get returns an empty buffer from the pool.
func Get() *Buf { return pool.Get().(*Buf) }

// Release returns b to the pool. Nothing may reference b.B afterwards.
func (b *Buf) Release() {
	if cap(b.B) > maxPooled {
		b.B = nil
	}
	b.B = b.B[:0]
	pool.Put(b)
}
