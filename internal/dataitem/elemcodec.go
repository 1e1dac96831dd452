package dataitem

import (
	"fmt"

	"allscale/internal/wire"
)

// The element codec: the one wire form of a run of fragment elements
// (grid cells, tree payloads, map keys and values; DESIGN.md §6a).
// The fixed-size numeric kinds travel as one bulk block
// (wire.AppendNumeric); every other element type is a uvarint
// count followed by each element's own form — length-prefixed for
// string, AppendWire/UnmarshalWire for a type that declares them. An
// element form is at least one byte: the decoder bounds the count by
// the bytes left. A type with none of these cannot be an element type:
// New{Grid,Tree,Map}Type reject it at registration, which is why
// the codec asserts the interfaces unchecked.

// mustHaveElemForm panics when T cannot be a fragment element type;
// the item type constructors call it so that the mistake surfaces where
// the type is declared, not at the first migration.
func mustHaveElemForm[T any](item string) {
	if wire.CanBulk[T]() {
		return
	}
	switch p := any(new(T)).(type) {
	case *string:
		return
	case wire.Marshaler:
		if _, ok := p.(wire.Unmarshaler); ok {
			return
		}
	}
	panic(fmt.Sprintf("dataitem: %s: element type %T has no wire form (numeric, string, or wire.Marshaler + wire.Unmarshaler)", item, *new(T)))
}

// appendElems appends the wire form of vals.
func appendElems[T any](buf []byte, vals []T) ([]byte, error) {
	if wire.CanBulk[T]() {
		return wire.AppendNumeric(buf, vals), nil
	}
	buf = wire.AppendUvarint(buf, uint64(len(vals)))
	if strs, ok := any(vals).([]string); ok {
		for _, s := range strs {
			buf = wire.AppendString(buf, s)
		}
		return buf, nil
	}
	for i := range vals {
		var err error
		if buf, err = any(&vals[i]).(wire.Marshaler).AppendWire(buf); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// decodeElems reads a run written by appendElems; failures are left in
// d.
func decodeElems[T any](d *wire.Decoder) []T {
	if wire.CanBulk[T]() {
		return wire.DecodeNumeric[T](d)
	}
	out := make([]T, d.Count(1))
	if strs, ok := any(out).([]string); ok {
		for i := range strs {
			strs[i] = d.String()
		}
		return out
	}
	for i := range out {
		if err := any(&out[i]).(wire.Unmarshaler).UnmarshalWire(d); err != nil {
			d.Failf("%v", err)
			return nil
		}
	}
	return out
}

// payloadDecoder checks the format tag of a fragment payload and
// returns a decoder over its body.
func payloadDecoder(data []byte) (*wire.Decoder, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("dataitem: empty fragment payload")
	}
	if data[0] != wire.FormatBinary {
		return nil, fmt.Errorf("dataitem: unknown fragment payload format 0x%02x", data[0])
	}
	return wire.NewDecoder(data[1:]), nil
}
