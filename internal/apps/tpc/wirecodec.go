package tpc

import "allscale/internal/wire"

// Binary wire forms of the task arguments (DESIGN.md §6a): a query
// spawns ~6 tasks and the scheduler decodes each task's arguments at
// placement, at acquisition and in the body, so none may take the gob
// fallback. Coordinates travel as IEEE 754 bits and round-trip
// exactly, NaN and ±Inf included.

func appendPoint7(buf []byte, p *Point7) []byte {
	for _, v := range p {
		buf = wire.AppendFloat64(buf, v)
	}
	return buf
}

func decodePoint7(d *wire.Decoder, p *Point7) {
	for i := range p {
		p[i] = d.Float64()
	}
}

// AppendWire implements wire.Marshaler.
func (a *loadArgs) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendVarint(buf, int64(a.Lo))
	return wire.AppendVarint(buf, int64(a.Hi)), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (a *loadArgs) UnmarshalWire(d *wire.Decoder) error {
	a.Lo = d.Int()
	a.Hi = d.Int()
	return nil
}

// AppendWire implements wire.Marshaler.
func (a *queryArgs) AppendWire(buf []byte) ([]byte, error) {
	buf = appendPoint7(buf, &a.Q)
	return wire.AppendFloat64(buf, a.R), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (a *queryArgs) UnmarshalWire(d *wire.Decoder) error {
	decodePoint7(d, &a.Q)
	a.R = d.Float64()
	return nil
}

// AppendWire implements wire.Marshaler.
func (a *subArgs) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendUvarint(buf, a.Node)
	buf = appendPoint7(buf, &a.Q)
	return wire.AppendFloat64(buf, a.R), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (a *subArgs) UnmarshalWire(d *wire.Decoder) error {
	a.Node = d.Uvarint()
	decodePoint7(d, &a.Q)
	a.R = d.Float64()
	return nil
}
