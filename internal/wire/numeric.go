package wire

import (
	"encoding/binary"
	"math"
	"slices"
)

// Bulk little-endian encoding of fixed-size numeric element types:
// instead of reflect-encoding element by element (what gob does), a
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

// CanBulk reports whether []T has a bulk binary encoding. Named
// types (`type Celsius float64`) intentionally do not match: they
// take the gob fallback like any other user type.
func CanBulk[T any]() bool {
	switch any(([]T)(nil)).(type) {
	case []float64, []float32, []int64, []uint64, []int32, []uint32,
		[]int16, []uint16, []int8, []uint8, []int, []uint:
		return true
	}
	return false
}

// AppendNumeric appends the bulk form of vals. It must only be called
// when CanBulk[T]() holds; it panics otherwise.
func AppendNumeric[T any](buf []byte, vals []T) []byte {
	switch v := any(vals).(type) {
	case []float64:
		buf = bulkHeader(buf, numF64, len(v), 8)
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
	case []float32:
		buf = bulkHeader(buf, numF32, len(v), 4)
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(x))
		}
	case []int64:
		buf = bulkHeader(buf, numI64, len(v), 8)
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
	case []uint64:
		buf = bulkHeader(buf, numU64, len(v), 8)
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint64(buf, x)
		}
	case []int32:
		buf = bulkHeader(buf, numI32, len(v), 4)
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
		}
	case []uint32:
		buf = bulkHeader(buf, numU32, len(v), 4)
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint32(buf, x)
		}
	case []int16:
		buf = bulkHeader(buf, numI16, len(v), 2)
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint16(buf, uint16(x))
		}
	case []uint16:
		buf = bulkHeader(buf, numU16, len(v), 2)
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint16(buf, x)
		}
	case []int8:
		buf = bulkHeader(buf, numI8, len(v), 1)
		for _, x := range v {
			buf = append(buf, byte(x))
		}
	case []uint8:
		buf = bulkHeader(buf, numU8, len(v), 1)
		buf = append(buf, v...)
	case []int:
		buf = bulkHeader(buf, numInt, len(v), 8)
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
	case []uint:
		buf = bulkHeader(buf, numUint, len(v), 8)
		for _, x := range v {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
		}
	default:
		panic("wire: AppendNumeric on unsupported element type")
	}
	return buf
}

func bulkHeader(buf []byte, kind byte, n, width int) []byte {
	buf = append(buf, kind)
	buf = AppendUvarint(buf, uint64(n))
	return slices.Grow(buf, n*width)
}

// DecodeNumeric reads a bulk block produced by AppendNumeric into a
// fresh []T. A kind mismatch or truncated block sets the decoder
// error. It must only be called when CanBulk[T]() holds.
func DecodeNumeric[T any](d *Decoder) []T {
	kind := d.Byte()
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	width := map[byte]int{
		numF64: 8, numF32: 4, numI64: 8, numU64: 8, numI32: 4, numU32: 4,
		numI16: 2, numU16: 2, numI8: 1, numU8: 1, numInt: 8, numUint: 8,
	}[kind]
	if width == 0 {
		d.fail("unknown numeric kind 0x%02x", kind)
		return nil
	}
	if n > uint64(len(d.data))/uint64(width) {
		d.fail("numeric block of %d×%dB exceeds remaining %d bytes", n, width, len(d.data))
		return nil
	}
	out := make([]T, n)
	raw := d.data
	ok := true
	switch p := any(out).(type) {
	case []float64:
		ok = kind == numF64
		for i := range p {
			p[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	case []float32:
		ok = kind == numF32
		for i := range p {
			p[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
		}
	case []int64:
		ok = kind == numI64
		for i := range p {
			p[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	case []uint64:
		ok = kind == numU64
		for i := range p {
			p[i] = binary.LittleEndian.Uint64(raw[8*i:])
		}
	case []int32:
		ok = kind == numI32
		for i := range p {
			p[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
		}
	case []uint32:
		ok = kind == numU32
		for i := range p {
			p[i] = binary.LittleEndian.Uint32(raw[4*i:])
		}
	case []int16:
		ok = kind == numI16
		for i := range p {
			p[i] = int16(binary.LittleEndian.Uint16(raw[2*i:]))
		}
	case []uint16:
		ok = kind == numU16
		for i := range p {
			p[i] = binary.LittleEndian.Uint16(raw[2*i:])
		}
	case []int8:
		ok = kind == numI8
		for i := range p {
			p[i] = int8(raw[i])
		}
	case []uint8:
		ok = kind == numU8
		copy(p, raw)
	case []int:
		ok = kind == numInt
		for i := range p {
			p[i] = int(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	case []uint:
		ok = kind == numUint
		for i := range p {
			p[i] = uint(binary.LittleEndian.Uint64(raw[8*i:]))
		}
	default:
		panic("wire: DecodeNumeric on unsupported element type")
	}
	if !ok {
		d.fail("numeric kind 0x%02x does not match requested element type", kind)
		return nil
	}
	d.data = d.data[int(n)*width:]
	return out
}

// encodeBuiltin gives the values that cross the wire without a type
// of their own the binary form, no Marshaler required: plain numeric
// slices (MPI values, gathered partial results, raw byte payloads),
// the scalar task results (int64 as a varint, uint64 as a uvarint,
// string length-prefixed) and the empty struct{} RPC body (no bytes
// after the tag). Both value and pointer forms are accepted,
// mirroring what callers pass to the old gob helpers.
func encodeBuiltin(v any) ([]byte, bool) {
	switch s := v.(type) {
	case struct{}, *struct{}:
		return taggedBuf(0), true
	case int64:
		return AppendVarint(taggedBuf(binary.MaxVarintLen64), s), true
	case *int64:
		return AppendVarint(taggedBuf(binary.MaxVarintLen64), *s), true
	case uint64:
		return AppendUvarint(taggedBuf(binary.MaxVarintLen64), s), true
	case *uint64:
		return AppendUvarint(taggedBuf(binary.MaxVarintLen64), *s), true
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
	case *int64:
		*p = d.Varint()
	case *uint64:
		*p = d.Uvarint()
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
