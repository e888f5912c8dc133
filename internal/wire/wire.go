// Package wire is the one binary cursor and appender set behind every
// hand-written codec in the repo: the stream frame payloads (internal/comm),
// the session snapshot (internal/fleet), the stream-lineage attachment
// (internal/serve) and the binary matrix section (internal/ensemble).
//
// The encodings are the codecs' shared conventions: unsigned integers are
// uvarints, signed ones zigzag varints, floats raw little-endian IEEE-754
// bits, strings a uvarint length followed by the bytes.
package wire

import (
	"encoding/binary"
	"errors"
	"math"
)

// errTruncated is the error a Reader records when a field runs past the end
// of its input or a bounded count exceeds its cap.
var errTruncated = errors.New("truncated or out-of-range field")

// Reader is a cursor over an encoded byte slice with a sticky error:
// decoders read fields linearly and check Err once. After the first failure
// every read returns a zero value and the cursor stops moving.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a cursor at the start of b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first failure, or nil.
func (r *Reader) Err() error { return r.err }

// Fail records err unless an earlier failure is already recorded.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Done reports whether the input was consumed exactly, without failure.
func (r *Reader) Done() bool { return r.err == nil && r.off == len(r.b) }

// Rest returns the unread input.
func (r *Reader) Rest() []byte { return r.b[r.off:] }

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.Fail(errTruncated)
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Uint32 reads a little-endian uint32.
func (r *Reader) Uint32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.Fail(errTruncated)
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// F64 reads a float64 from its raw little-endian bits.
func (r *Reader) F64() float64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.Fail(errTruncated)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.Fail(errTruncated)
		return 0
	}
	r.off += n
	return v
}

// Zigzag reads a zigzag-coded signed varint.
func (r *Reader) Zigzag() int64 {
	u := r.Uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

// Count reads a uvarint bounded by max, as an int; a larger value fails the
// reader, so a corrupted count can never drive a huge allocation.
func (r *Reader) Count(max int) int {
	v := r.Uvarint()
	if r.err == nil && v > uint64(max) {
		r.Fail(errTruncated)
		return 0
	}
	return int(v)
}

// Bytes reads n raw bytes. The result aliases the input; callers that keep
// it past the input's lifetime copy it.
func (r *Reader) Bytes(n int) []byte {
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.Fail(errTruncated)
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// Str reads a uvarint length of at most max, then that many bytes.
func (r *Reader) Str(max int) string {
	return string(r.Bytes(r.Count(max)))
}

// AppendZigzag appends a zigzag-coded signed varint.
func AppendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64((v<<1)^(v>>63)))
}

// AppendString appends a uvarint length followed by the bytes of s.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendF64 appends the raw little-endian bits of v.
func AppendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}
