package wire

import (
	"encoding/binary"
	"math"
	"slices"
)

// Bulk little-endian encoding of fixed-size numeric element types: a
// whole slice is emitted as one kind byte, one uvarint count, and
// count fixed-width values. This is the element transport of the
// region-wise fragment payloads (DESIGN.md §6a "Wire formats").

// Numeric element kind tags.
const (
	numF64 byte = iota + 1
	numF32
	numI64
	numU64
	numI32
	numU32
	numI16
	numU16
	numI8
	numU8
	numInt  // encoded as 64-bit
	numUint // encoded as 64-bit
)

// numericWidth is the encoded size of one element of each kind.
var numericWidth = [...]int{
	numF64: 8, numF32: 4, numI64: 8, numU64: 8, numI32: 4, numU32: 4,
	numI16: 2, numU16: 2, numI8: 1, numU8: 1, numInt: 8, numUint: 8,
}

// numericKind returns the kind tag of []T, or 0 when T has no bulk
// encoding.
func numericKind[T any]() byte {
	switch any(([]T)(nil)).(type) {
	case []float64:
		return numF64
	case []float32:
		return numF32
	case []int64:
		return numI64
	case []uint64:
		return numU64
	case []int32:
		return numI32
	case []uint32:
		return numU32
	case []int16:
		return numI16
	case []uint16:
		return numU16
	case []int8:
		return numI8
	case []uint8:
		return numU8
	case []int:
		return numInt
	case []uint:
		return numUint
	}
	return 0
}

// CanBulk reports whether []T has a bulk binary encoding. Named
// types (`type Celsius float64`) intentionally do not match: like any
// other user type they declare their own form (Marshaler/Unmarshaler).
func CanBulk[T any]() bool { return numericKind[T]() != 0 }

// AppendNumeric appends the bulk form of vals. It must only be called
// when CanBulk[T]() holds; it panics otherwise.
func AppendNumeric[T any](buf []byte, vals []T) []byte {
	kind := numericKind[T]()
	if kind == 0 {
		panic("wire: AppendNumeric on unsupported element type")
	}
	buf = append(buf, kind)
	buf = AppendUvarint(buf, uint64(len(vals)))
	buf = slices.Grow(buf, len(vals)*numericWidth[kind])
	switch v := any(vals).(type) {
	case []float64:
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
	case []float32:
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
		}
	case []int64:
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
	case []uint64:
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint64(buf, x)
		}
	case []int32:
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
		}
	case []uint32:
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint32(buf, x)
		}
	case []int16:
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(x))
		}
	case []uint16:
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint16(buf, x)
		}
	case []int8:
		for _, x := range v {
			buf = append(buf, byte(x))
		}
	case []uint8:
		buf = append(buf, v...)
	case []int:
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
	case []uint:
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
	}
	return buf
}

// DecodeNumeric reads a bulk block produced by AppendNumeric into a
// fresh []T. A block of another kind or a truncated one sets the
// decoder error before anything is read or sized from it. It must only
// be called when CanBulk[T]() holds.
func DecodeNumeric[T any](d *Decoder) []T {
	kind := d.Byte()
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	want := numericKind[T]()
	if want == 0 {
		panic("wire: DecodeNumeric on unsupported element type")
	}
	if kind != want {
		d.fail("numeric kind 0x%02x does not match requested element type", kind)
		return nil
	}
	width := numericWidth[kind]
	if n > uint64(len(d.data)/width) {
		d.fail("numeric block of %d×%dB exceeds remaining %d bytes", n, width, len(d.data))
		return nil
	}
	out := make([]T, n)
	raw := d.data
	switch p := any(out).(type) {
	case []float64:
		for i := range p {
			p[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	case []float32:
		for i := range p {
			p[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
	case []int64:
		for i := range p {
			p[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	case []uint64:
		for i := range p {
			p[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
	case []int32:
		for i := range p {
			p[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
		}
	case []uint32:
		for i := range p {
			p[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
	case []int16:
		for i := range p {
			p[i] = int16(binary.LittleEndian.Uint16(raw[2*i:]))
		}
	case []uint16:
		for i := range p {
			p[i] = binary.LittleEndian.Uint16(raw[2*i:])
		}
	case []int8:
		for i := range p {
			p[i] = int8(raw[i])
		}
	case []uint8:
		copy(p, raw)
	case []int:
		for i := range p {
			p[i] = int(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	case []uint:
		for i := range p {
			p[i] = uint(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	}
	d.data = d.data[int(n)*width:]
	return out
}

// encodeBuiltin gives the values that cross the wire without a type
// of their own the binary form, no Marshaler required: plain numeric
// slices (MPI values, gathered partial results, raw byte payloads),
// the scalars (int and int64 as a varint, uint64 as a uvarint, float64
// as its IEEE 754 bits, string length-prefixed) and the empty struct{}
// RPC body (no bytes after the tag). Both value and pointer forms are
// accepted.
func encodeBuiltin(v any) ([]byte, bool) {
	switch s := v.(type) {
	case struct{}, *struct{}:
		return taggedBuf(0), true
	case int:
		return AppendVarint(taggedBuf(binary.MaxVarintLen64), int64(s)), true
	case *int:
		return AppendVarint(taggedBuf(binary.MaxVarintLen64), int64(*s)), true
	case int64:
		return AppendVarint(taggedBuf(binary.MaxVarintLen64), s), true
	case *int64:
		return AppendVarint(taggedBuf(binary.MaxVarintLen64), *s), true
	case uint64:
		return AppendUvarint(taggedBuf(binary.MaxVarintLen64), s), true
	case *uint64:
		return AppendUvarint(taggedBuf(binary.MaxVarintLen64), *s), true
	case float64:
		return AppendFloat64(taggedBuf(8), s), true
	case *float64:
		return AppendFloat64(taggedBuf(8), *s), true
	case string:
		return AppendString(taggedBuf(binary.MaxVarintLen64+len(s)), s), true
	case *string:
		return AppendString(taggedBuf(binary.MaxVarintLen64+len(*s)), *s), true
	case []byte:
		return appendBuiltin(s), true
	case *[]byte:
		return appendBuiltin(*s), true
	case []int64:
		return appendBuiltin(s), true
	case *[]int64:
		return appendBuiltin(*s), true
	case []uint64:
		return appendBuiltin(s), true
	case *[]uint64:
		return appendBuiltin(*s), true
	case []int32:
		return appendBuiltin(s), true
	case *[]int32:
		return appendBuiltin(*s), true
	case []float64:
		return appendBuiltin(s), true
	case *[]float64:
		return appendBuiltin(*s), true
	case []float32:
		return appendBuiltin(s), true
	case *[]float32:
		return appendBuiltin(*s), true
	case []int:
		return appendBuiltin(s), true
	case *[]int:
		return appendBuiltin(*s), true
	}
	return nil, false
}

// taggedBuf returns a buffer holding the binary format tag, with room
// for n more bytes.
func taggedBuf(n int) []byte {
	buf := make([]byte, 1, 1+n)
	buf[0] = FormatBinary
	return buf
}

func appendBuiltin[T any](s []T) []byte {
	return AppendNumeric(taggedBuf(16+8*len(s)), s)
}

// decodeBuiltin is the decode side of encodeBuiltin: it reports
// whether v points to a builtin and, if so, reads the value from d
// (errors are left in d).
func decodeBuiltin(d *Decoder, v any) bool {
	switch p := v.(type) {
	case *struct{}:
	case *int:
		*p = d.Int()
	case *int64:
		*p = d.Varint()
	case *uint64:
		*p = d.Uvarint()
	case *float64:
		*p = d.Float64()
	case *string:
		*p = d.String()
	case *[]byte:
		*p = DecodeNumeric[byte](d)
	case *[]int64:
		*p = DecodeNumeric[int64](d)
	case *[]uint64:
		*p = DecodeNumeric[uint64](d)
	case *[]int32:
		*p = DecodeNumeric[int32](d)
	case *[]float64:
		*p = DecodeNumeric[float64](d)
	case *[]float32:
		*p = DecodeNumeric[float32](d)
	case *[]int:
		*p = DecodeNumeric[int](d)
	default:
		return false
	}
	return true
}
