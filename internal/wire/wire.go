// Package wire is the serialization layer of the runtime's
// communication paths (the cheap data-item migration and fine-grained
// remote task spawning the application model depends on, Section 3.2).
//
// Every payload starts with the one-byte format tag 0x01 and continues
// in a compact, length-prefixed little-endian form that the value's
// type declares: a hand-written Marshaler/Unmarshaler pair (the
// runtime RPC envelopes, scheduler task specs, task argument structs,
// DIM request/reply headers, application payloads) or one of the
// builtins of numeric.go (the numeric slices, the scalars int, int64,
// uint64, float64 and string, and the empty struct{} RPC body).
//
// There is no reflective default: Encode of any other type is an
// error naming the type, and Decode rejects every other tag. A type
// that crosses the wire says how (DESIGN.md §6a).
package wire

import "fmt"

// FormatBinary is the format tag, the first byte of every encoded
// payload.
const FormatBinary byte = 0x01

// Marshaler is implemented by message types with a hand-written
// binary wire form. AppendWire appends the form to buf and returns
// the extended slice (it must not retain buf).
type Marshaler interface {
	AppendWire(buf []byte) ([]byte, error)
}

// Unmarshaler is the decode side of Marshaler. UnmarshalWire reads
// the value's fields from d; it may rely on d's sticky error — Decode
// checks d.Err after it returns.
type Unmarshaler interface {
	UnmarshalWire(d *Decoder) error
}

// Payload is a value already in wire form, laid out byte for byte as
// Encode lays it out: Encode of a *Payload returns the bytes themselves,
// not a copy. A caller that encodes several values into one buffer hands
// out slices of it this way, one allocation for all of them.
type Payload []byte

// Encode returns the wire form of v, which must implement Marshaler,
// be a builtin or be a *Payload; any other type is an error. A nil v
// encodes as an empty payload ("no body").
func Encode(v any) ([]byte, error) {
	if v == nil {
		return nil, nil
	}
	if p, ok := v.(*Payload); ok {
		return *p, nil
	}
	if m, ok := v.(Marshaler); ok {
		buf := make([]byte, 1, 128)
		buf[0] = FormatBinary
		return m.AppendWire(buf)
	}
	if buf, ok := encodeBuiltin(v); ok {
		return buf, nil
	}
	return nil, fmt.Errorf("wire: %T has no wire form (not a builtin, no AppendWire)", v)
}

// AppendEncode appends the wire form of v, byte for byte as Encode
// returns it, to buf: a Marshaler writes straight into buf.
func AppendEncode(buf []byte, v any) ([]byte, error) {
	switch m := v.(type) {
	case nil:
		return buf, nil
	case *Payload:
		return append(buf, *m...), nil
	case Marshaler:
		return m.AppendWire(append(buf, FormatBinary))
	}
	b, err := Encode(v)
	return append(buf, b...), err
}

// Decode decodes a payload produced by Encode into v (a pointer). A
// nil v discards the payload; an empty payload is an error.
func Decode(data []byte, v any) error {
	if v == nil {
		return nil
	}
	d := new(Decoder)
	if err := d.Reset(data); err != nil {
		return err
	}
	if !decodeBuiltin(d, v) {
		u, ok := v.(Unmarshaler)
		if !ok {
			return fmt.Errorf("wire: %T has no wire form (not a builtin, no UnmarshalWire)", v)
		}
		if err := u.UnmarshalWire(d); err != nil {
			return err
		}
	}
	// A payload is exactly one value: bytes left over mean the
	// sender and the receiver disagree about the type.
	if d.err == nil && len(d.data) != 0 {
		d.fail("%d trailing bytes after %T", len(d.data), v)
	}
	return d.err
}

// Reset points d at payload, as produced by Encode, past its format
// tag: a decoder the caller keeps and resets per payload lets a hot path
// decode through the value's own UnmarshalWire — called on the concrete
// type, so neither the decoder nor the value needs the heap. Finish
// ends the payload.
func (d *Decoder) Reset(payload []byte) error {
	*d = Decoder{}
	switch {
	case len(payload) == 0:
		d.fail("empty payload")
	case payload[0] != FormatBinary:
		d.fail("unknown format tag 0x%02x", payload[0])
	default:
		d.data = payload[1:]
	}
	return d.err
}

// Finish returns the first decode error of the payload Reset started,
// or an error when bytes are left over: a payload is exactly one value.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.data) != 0 {
		d.fail("%d trailing bytes after the value", len(d.data))
	}
	return d.err
}
