// Package codec holds the hand-rolled JSON fast paths of the data plane:
// pooled []byte buffers, allocation-free append-style encoders for the
// /v1/score, /v1/observe, /v1/subject and /v1/source response shapes,
// strict decoders for the two request shapes, and the Decoder primitives
// and HTML-safe string encoder that internal/store's JSONL lines and
// internal/wal's log lines are read and written with — replacing
// reflection-based encoding/json on every function annotated
// //corrfuse:hotpath and on every line a store load or a WAL replay reads.
//
// The encoders are byte-compatible with encoding/json: identical string
// escaping (including invalid-UTF-8 coercion to U+FFFD and the
// \u2028/\u2029 escapes; AppendString has EscapeHTML off, as the wire
// does, AppendStringHTML on, as json.Marshal does), identical float
// formatting ('f' shortest form, switching to exponent form below 1e-6 and
// at 1e21, with the exponent's leading zero stripped). The decoders
// implement the full JSON grammar, nesting limit included, with
// encoding/json's semantics where they matter to the wire: case-insensitive
// field matching, unknown fields skipped, null no-ops, last duplicate wins,
// invalid UTF-8 coerced.
//
// Encode-path functions carry //corrfuse:hotpath so corrfuselint's
// hotpathalloc analyzer rejects any future encoding/json, fmt.*, map or
// string<->[]byte-conversion allocation creeping back in. The decoders are
// deliberately not annotated: producing Go strings from a request body is
// where the read path's per-request allocations are supposed to live.
package codec

import (
	"io"
	"sync"
)

// Buffer is a reusable byte buffer. The zero value is ready to use; Get
// and Put recycle buffers through a pool so steady-state encoding does
// not allocate.
type Buffer struct {
	// B is the accumulated bytes. Append-style encoders take and return
	// it directly: buf.B = codec.AppendScoreResponse(buf.B, ...).
	B []byte
}

// Write appends p, implementing io.Writer so a Buffer can back
// json.Encoder on cold paths. It never fails.
func (b *Buffer) Write(p []byte) (int, error) {
	b.B = append(b.B, p...)
	return len(p), nil
}

// Reset empties the buffer, keeping its capacity.
func (b *Buffer) Reset() { b.B = b.B[:0] }

// ReadFrom appends r's entire contents, growing as needed but reusing the
// buffer's existing capacity first. It returns the byte count and the
// first read error other than io.EOF.
func (b *Buffer) ReadFrom(r io.Reader) (int64, error) {
	var total int64
	for {
		if len(b.B) == cap(b.B) {
			b.B = append(b.B, 0)[:len(b.B)]
		}
		n, err := r.Read(b.B[len(b.B):cap(b.B)])
		b.B = b.B[:len(b.B)+n]
		total += int64(n)
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

// maxPooledBuffer caps what Put returns to the pool: one pathological
// response (a huge subject listing, say) must not pin megabytes inside
// the pool forever.
const maxPooledBuffer = 1 << 20

var bufPool = sync.Pool{
	New: func() any { return &Buffer{B: make([]byte, 0, 4096)} },
}

// GetBuffer returns an empty pooled buffer. Pair with PutBuffer.
func GetBuffer() *Buffer {
	b := bufPool.Get().(*Buffer)
	b.Reset()
	return b
}

// PutBuffer recycles a buffer obtained from GetBuffer. Oversized buffers
// are dropped instead of pooled. The caller must not touch b (or slices
// of b.B) afterwards.
func PutBuffer(b *Buffer) {
	if cap(b.B) > maxPooledBuffer {
		return
	}
	bufPool.Put(b)
}
