package wire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Append helpers for the binary form. All return the extended slice.

// AppendUvarint appends v in unsigned varint form.
func AppendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

// AppendVarint appends v in zig-zag varint form.
func AppendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendBool appends v as one byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendFloat64 appends the IEEE 754 bits of v, little-endian, so
// every value — NaN payloads and signed zeros included — round-trips
// bit for bit.
func AppendFloat64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// AppendString appends s with a uvarint length prefix.
func AppendString(b []byte, s string) []byte {
	b = AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendBytes appends p with a uvarint length prefix.
func AppendBytes(b, p []byte) []byte {
	b = AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// Decoder reads the binary form back out of a byte slice. Errors are
// sticky: after the first malformed read every subsequent read
// returns a zero value, and Err reports the first failure — so codecs
// can decode a whole struct without per-field error checks.
type Decoder struct {
	data []byte
	err  error
}

// NewDecoder wraps data (not copied) for decoding.
func NewDecoder(data []byte) *Decoder { return &Decoder{data: data} }

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Len returns the number of unconsumed bytes.
func (d *Decoder) Len() int { return len(d.data) }

func (d *Decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// Failf forces a sticky decode error; codecs use it to reject values
// that are syntactically readable but semantically absurd (e.g. a
// box dimensionality that would trigger a huge allocation).
func (d *Decoder) Failf(format string, args ...any) { d.fail(format, args...) }

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if len(d.data) < 1 {
		d.fail("truncated payload reading byte")
		return 0
	}
	v := d.data[0]
	d.data = d.data[1:]
	return v
}

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.fail("malformed uvarint")
		return 0
	}
	d.data = d.data[n:]
	return v
}

// Varint reads a zig-zag varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data)
	if n <= 0 {
		d.fail("malformed varint")
		return 0
	}
	d.data = d.data[n:]
	return v
}

// Float64 reads eight bytes written by AppendFloat64.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.data) < 8 {
		d.fail("truncated payload reading float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data))
	d.data = d.data[8:]
	return v
}

// Count reads the uvarint element count of a list whose elements take
// at least elemMin (≥ 1) bytes each, and fails when the bytes left
// cannot hold that many: a count is chosen by the peer, so it must be
// bounded before anything is sized from it.
func (d *Decoder) Count(elemMin int) int {
	n := d.Uvarint()
	if n > uint64(len(d.data)/elemMin) {
		d.fail("count %d exceeds what the remaining %d bytes can hold", n, len(d.data))
		return 0
	}
	return int(n)
}

// Bool reads one byte as a bool.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Int reads a varint as int (for counts and small fields).
func (d *Decoder) Int() int { return int(d.Varint()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string { return string(d.view("string")) }

// Rest reads every byte left: the last field of a form that ends where
// its payload does, so it needs no length. The result aliases the
// decoder's input.
func (d *Decoder) Rest() []byte {
	v := d.data[:len(d.data):len(d.data)]
	d.data = d.data[len(d.data):]
	return v
}

// Bytes reads a length-prefixed byte slice. The result aliases the
// decoder's input — callers that outlive the input must copy.
func (d *Decoder) Bytes() []byte { return d.view("bytes") }

func (d *Decoder) view(what string) []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.data)) {
		d.fail("%s length %d exceeds remaining %d bytes", what, n, len(d.data))
		return nil
	}
	v := d.data[:n:n]
	d.data = d.data[n:]
	return v
}
