package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// prop: a read past the end records one error and returns a zero value;
// every later read returns a zero value too, and the cursor stops moving.
func TestTruncatedReadFailsOnceAndReturnsZeros(t *testing.T) {
	r := NewReader([]byte{7, 1, 2})
	if v := r.Byte(); v != 7 || r.Err() != nil {
		t.Fatalf("Byte = %d, err %v; want 7, nil", v, r.Err())
	}
	if v := r.Uint32(); v != 0 || r.Err() == nil {
		t.Fatalf("Uint32 over 2 bytes = %d, err %v; want 0 and an error", v, r.Err())
	}
	first := r.Err()
	// The two bytes Uint32 could not take are still unread, but a failed
	// reader hands out nothing: each read type returns its zero value.
	if v := r.Byte(); v != 0 {
		t.Errorf("Byte after failure = %d, want 0", v)
	}
	if v := r.Uvarint(); v != 0 {
		t.Errorf("Uvarint after failure = %d, want 0", v)
	}
	if v := r.Zigzag(); v != 0 {
		t.Errorf("Zigzag after failure = %d, want 0", v)
	}
	if v := r.F64(); v != 0 {
		t.Errorf("F64 after failure = %v, want 0", v)
	}
	if v := r.Count(10); v != 0 {
		t.Errorf("Count after failure = %d, want 0", v)
	}
	if v := r.Bytes(1); v != nil {
		t.Errorf("Bytes after failure = %v, want nil", v)
	}
	if v := r.Str(10); v != "" {
		t.Errorf("Str after failure = %q, want empty", v)
	}
	if r.Err() != first {
		t.Errorf("error changed from %v to %v", first, r.Err())
	}
	if got := r.Rest(); !bytes.Equal(got, []byte{1, 2}) {
		t.Errorf("Rest after failure = %v, want [1 2]: the cursor moved", got)
	}

	// Fail keeps the first error as well.
	r.Fail(errTruncated)
	if r.Err() != first {
		t.Errorf("Fail replaced the first error")
	}
	for name, read := range map[string]func(*Reader){
		"F64":   func(r *Reader) { r.F64() },
		"Bytes": func(r *Reader) { r.Bytes(4) },
		"Str":   func(r *Reader) { r.Str(8) },
	} {
		r := NewReader([]byte{3, 'a'})
		read(&r)
		if r.Err() == nil {
			t.Errorf("%s past the end of 2 bytes: no error", name)
		}
	}
}

// prop: Count and Str accept a value equal to their max and reject one above
// it, without reading further.
func TestCountAndStrRejectAboveMax(t *testing.T) {
	r := NewReader([]byte{5})
	if v := r.Count(5); v != 5 || r.Err() != nil {
		t.Fatalf("Count(5) of 5 = %d, err %v", v, r.Err())
	}
	r = NewReader([]byte{6})
	if v := r.Count(5); v != 0 || r.Err() == nil {
		t.Fatalf("Count(5) of 6 = %d, err %v; want 0 and an error", v, r.Err())
	}
	// A huge count must fail before anything sizes an allocation from it.
	r = NewReader(binary.AppendUvarint(nil, math.MaxUint64))
	if v := r.Count(math.MaxInt32); v != 0 || r.Err() == nil {
		t.Fatalf("Count of MaxUint64 = %d, err %v; want 0 and an error", v, r.Err())
	}

	b := AppendString(nil, "abc")
	r = NewReader(b)
	if v := r.Str(3); v != "abc" || !r.Done() {
		t.Fatalf("Str(3) of \"abc\" = %q, done %v, err %v", v, r.Done(), r.Err())
	}
	r = NewReader(b)
	if v := r.Str(2); v != "" || r.Err() == nil {
		t.Fatalf("Str(2) of \"abc\" = %q, err %v; want empty and an error", v, r.Err())
	}
}

// prop: a varint longer than 64 bits fails the reader instead of wrapping.
func TestUvarintRejectsOverflow(t *testing.T) {
	over := append(bytes.Repeat([]byte{0xff}, 9), 0x02) // 2^64 and above
	r := NewReader(over)
	if v := r.Uvarint(); v != 0 || r.Err() == nil {
		t.Fatalf("Uvarint of a 10-byte value past 2^64 = %d, err %v; want 0 and an error", v, r.Err())
	}
	r = NewReader(bytes.Repeat([]byte{0x80}, 11))
	if v := r.Uvarint(); v != 0 || r.Err() == nil {
		t.Fatalf("Uvarint of an over-long varint = %d, err %v; want 0 and an error", v, r.Err())
	}
	r = NewReader(binary.AppendUvarint(nil, math.MaxUint64))
	if v := r.Uvarint(); v != math.MaxUint64 || !r.Done() {
		t.Fatalf("Uvarint of MaxUint64 = %d, done %v, err %v", v, r.Done(), r.Err())
	}
}

// prop: AppendZigzag and Zigzag round-trip every int64, the extremes
// included, and small magnitudes of either sign stay one byte.
func TestZigzagRoundTripsExtremes(t *testing.T) {
	var b []byte
	vals := []int64{0, -1, 1, -64, 63, math.MinInt64, math.MaxInt64, math.MinInt64 + 1, math.MaxInt64 - 1}
	for _, v := range vals {
		b = AppendZigzag(b, v)
	}
	r := NewReader(b)
	for _, want := range vals {
		if got := r.Zigzag(); got != want {
			t.Errorf("Zigzag = %d, want %d", got, want)
		}
	}
	if !r.Done() {
		t.Fatalf("round trip left %d bytes, err %v", len(r.Rest()), r.Err())
	}
	for _, v := range []int64{-64, 63} {
		if n := len(AppendZigzag(nil, v)); n != 1 {
			t.Errorf("AppendZigzag(%d) is %d bytes, want 1", v, n)
		}
	}
}

// prop: Done is true only when the input is consumed exactly and no read
// failed; Rest is the unread input, aliasing it.
func TestDoneAndRest(t *testing.T) {
	in := AppendF64([]byte{9}, 1.5)
	r := NewReader(in)
	if r.Done() {
		t.Fatal("Done before any read")
	}
	if got := r.Rest(); len(got) != len(in) || &got[0] != &in[0] {
		t.Fatal("Rest before any read is not the whole input")
	}
	r.Byte()
	if r.Done() || len(r.Rest()) != 8 {
		t.Fatalf("after one byte: done %v, rest %d bytes", r.Done(), len(r.Rest()))
	}
	if v := r.F64(); v != 1.5 {
		t.Fatalf("F64 = %v, want 1.5", v)
	}
	if !r.Done() || len(r.Rest()) != 0 {
		t.Fatalf("after the last field: done %v, rest %d bytes", r.Done(), len(r.Rest()))
	}
	r.Byte() // one read too many
	if r.Done() {
		t.Fatal("Done after a failed read")
	}
	if empty := NewReader(nil); !empty.Done() {
		t.Fatal("Done is false on empty input")
	}
}
