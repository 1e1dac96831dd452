package tpc

import "allscale/internal/wire"

// Binary wire forms of the task arguments, of the kd-tree node (the
// element type of the tree item) and of the MPI reference's query
// batch (DESIGN.md §6a). A query spawns ~6 tasks and the scheduler
// decodes each task's arguments at placement, at acquisition and in
// the body. Coordinates travel as IEEE 754 bits and round-trip
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

// point7s is a run of points: a uvarint count, then 7 coordinates
// each. It is the leaf bucket of a KDNode and the MPI reference's
// query batch.
type point7s []Point7

// AppendWire implements wire.Marshaler.
func (ps point7s) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendUvarint(buf, uint64(len(ps)))
	for i := range ps {
		buf = appendPoint7(buf, &ps[i])
	}
	return buf, nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (ps *point7s) UnmarshalWire(d *wire.Decoder) error {
	*ps = make(point7s, d.Count(8*Dims))
	for i := range *ps {
		decodePoint7(d, &(*ps)[i])
	}
	return nil
}

// AppendWire implements wire.Marshaler.
func (n *KDNode) AppendWire(buf []byte) ([]byte, error) {
	buf = appendPoint7(buf, &n.Lo)
	buf = appendPoint7(buf, &n.Hi)
	buf = wire.AppendVarint(buf, n.Count)
	buf = wire.AppendVarint(buf, int64(n.SplitDim))
	buf = wire.AppendFloat64(buf, n.SplitVal)
	return point7s(n.Points).AppendWire(buf)
}

// UnmarshalWire implements wire.Unmarshaler.
func (n *KDNode) UnmarshalWire(d *wire.Decoder) error {
	decodePoint7(d, &n.Lo)
	decodePoint7(d, &n.Hi)
	n.Count = d.Varint()
	n.SplitDim = d.Int()
	n.SplitVal = d.Float64()
	return (*point7s)(&n.Points).UnmarshalWire(d)
}
