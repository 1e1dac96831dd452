package sched

import "allscale/internal/wire"

// benchArgs is a one-field task argument with its own wire codec.
type benchArgs struct{ V uint64 }

func (a *benchArgs) AppendWire(buf []byte) ([]byte, error) {
	return wire.AppendUvarint(buf, a.V), nil
}

func (a *benchArgs) UnmarshalWire(d *wire.Decoder) error {
	a.V = d.Uvarint()
	return nil
}
