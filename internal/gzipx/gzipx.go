// Package gzipx wraps compress/gzip with pooled writers and readers.
//
// The paper compresses every delta with gzip before shipping it (Section
// VI-A, footnote 8); roughly a factor of 2 of the reported savings comes
// from compression. The delta-server compresses and decompresses on every
// request, so all per-call codec state — writer, reader, byte source and
// sink — is pooled; the only steady-state allocation is the result handed
// to the caller.
package gzipx

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"sync"

	"cbde/internal/bodybuf"
)

// sliceWriter appends everything written to it to buf. It is the pooled
// sink that lets AppendCompress build output without a bytes.Buffer.
type sliceWriter struct {
	buf []byte
}

func (s *sliceWriter) Write(p []byte) (int, error) {
	s.buf = append(s.buf, p...)
	return len(p), nil
}

// compressor bundles a gzip.Writer with its slice sink so one pool Get
// yields everything a compression call needs.
type compressor struct {
	sink sliceWriter
	zw   *gzip.Writer
}

// compressorPool returns a pool of compressors at one gzip level.
func compressorPool(level int) *sync.Pool {
	return &sync.Pool{
		New: func() any {
			c := &compressor{}
			zw, err := gzip.NewWriterLevel(&c.sink, level)
			if err != nil {
				// Only reachable with an invalid level constant.
				panic(fmt.Sprintf("gzipx: NewWriterLevel: %v", err))
			}
			c.zw = zw
			return c
		},
	}
}

var (
	bestPool  = compressorPool(gzip.BestCompression)
	speedPool = compressorPool(gzip.BestSpeed)
)

// Compress returns the gzip compression of data at BestCompression level.
// The result is freshly allocated and owned by the caller.
func Compress(data []byte) []byte {
	return AppendCompress(make([]byte, 0, len(data)/3+64), data)
}

// AppendCompress appends the gzip compression of data (BestCompression
// level) to dst and returns the extended slice, growing it as needed. It
// allocates nothing when dst has sufficient capacity, which lets request
// loops compress into recycled buffers.
func AppendCompress(dst, data []byte) []byte {
	return appendCompress(bestPool, dst, data)
}

// AppendCompressFast is AppendCompress at BestSpeed level: several times
// faster for a somewhat larger (still standard gzip) stream. It is for
// bytes the process writes for itself on a request path, such as spill
// records, where compression time is paid by a waiting request.
func AppendCompressFast(dst, data []byte) []byte {
	return appendCompress(speedPool, dst, data)
}

func appendCompress(pool *sync.Pool, dst, data []byte) []byte {
	c := pool.Get().(*compressor)
	c.sink.buf = dst
	c.zw.Reset(&c.sink)
	// Writes to the slice sink cannot fail.
	_, _ = c.zw.Write(data)
	_ = c.zw.Close()
	out := c.sink.buf
	c.sink.buf = nil // do not retain caller memory in the pool
	pool.Put(c)
	return out
}

// countWriter discards writes, counting them.
type countWriter struct {
	n int
}

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += len(p)
	return len(p), nil
}

// sizer is the pooled state behind CompressedSize: a gzip.Writer whose sink
// only counts, so sizing a compression materializes no output at all.
type sizer struct {
	sink countWriter
	zw   *gzip.Writer
}

var sizerPool = sync.Pool{
	New: func() any {
		s := &sizer{}
		zw, err := gzip.NewWriterLevel(&s.sink, gzip.BestCompression)
		if err != nil {
			panic(fmt.Sprintf("gzipx: NewWriterLevel: %v", err))
		}
		s.zw = zw
		return s
	},
}

// CompressedSize returns len(Compress(data)) without materializing the
// compressed bytes. Use it when only the size matters (ratio reporting,
// admission decisions); it allocates nothing in steady state.
func CompressedSize(data []byte) int {
	s := sizerPool.Get().(*sizer)
	s.sink.n = 0
	s.zw.Reset(&s.sink)
	_, _ = s.zw.Write(data)
	_ = s.zw.Close()
	n := s.sink.n
	sizerPool.Put(s)
	return n
}

// decompressor bundles a gzip.Reader with its byte source so Decompress
// performs no per-call reader allocations.
type decompressor struct {
	src bytes.Reader
	zr  gzip.Reader
}

var decompressorPool = sync.Pool{
	New: func() any { return new(decompressor) },
}

// Decompress inflates gzip-compressed data. The result is freshly allocated
// and owned by the caller. It is for the process's own bytes (spill records,
// probes); input from outside goes through AppendDecompress with a real bound.
func Decompress(data []byte) ([]byte, error) {
	return AppendDecompress(nil, data, 1<<30) // the spill codec's section cap
}

// AppendDecompress appends the inflation of gzip-compressed data to dst and
// returns the extended slice; it allocates nothing when dst has the room. A
// stream that inflates to more than max bytes fails with bodybuf.ErrTooLarge
// once the output passes max, so a small hostile payload cannot make the
// caller allocate without bound. On error dst is returned unextended.
func AppendDecompress(dst, data []byte, max int) ([]byte, error) {
	d := decompressorPool.Get().(*decompressor)
	defer func() {
		d.src.Reset(nil) // do not retain caller memory in the pool
		decompressorPool.Put(d)
	}()
	d.src.Reset(data)
	if err := d.zr.Reset(&d.src); err != nil {
		return dst, fmt.Errorf("gzipx: open stream: %w", err)
	}
	// The ISIZE trailer (present: the header Reset just read is 10 bytes)
	// sizes the output in one step. It is only a hint: a forged one is capped
	// by deflate's best ratio (1032:1) over the input actually present, and
	// the bound is enforced on bytes inflated.
	hint := min(int64(binary.LittleEndian.Uint32(data[len(data)-4:])), 1032*int64(len(data)))
	out, err := bodybuf.Read(dst, &d.zr, hint, max)
	if cerr := d.zr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return dst, fmt.Errorf("gzipx: inflate: %w", err)
	}
	return out, nil
}

// Ratio returns the compression ratio original/compressed for data, or 1 for
// empty input. It is a convenience for experiment reporting and never
// materializes the compressed bytes.
func Ratio(data []byte) float64 {
	if len(data) == 0 {
		return 1
	}
	c := CompressedSize(data)
	if c == 0 {
		return 1
	}
	return float64(len(data)) / float64(c)
}
