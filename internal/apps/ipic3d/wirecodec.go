package ipic3d

import "allscale/internal/wire"

// Binary wire forms (DESIGN.md §6a) of the two struct element types
// of the simulation's grids — Vec3 for the fields, Cell for the
// particle lists — and of the MPI reference's one message type.
// Coordinates travel as IEEE 754 bits.

// AppendWire implements wire.Marshaler.
func (v *Vec3) AppendWire(buf []byte) ([]byte, error) {
	for _, x := range v {
		buf = wire.AppendFloat64(buf, x)
	}
	return buf, nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (v *Vec3) UnmarshalWire(d *wire.Decoder) error {
	for i := range v {
		v[i] = d.Float64()
	}
	return nil
}

// AppendWire implements wire.Marshaler: the particle count, then ID,
// position and velocity of each.
func (c *Cell) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendUvarint(buf, uint64(len(c.Parts)))
	for i := range c.Parts {
		p := &c.Parts[i]
		buf = wire.AppendVarint(buf, p.ID)
		buf, _ = p.Pos.AppendWire(buf)
		buf, _ = p.Vel.AppendWire(buf)
	}
	return buf, nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (c *Cell) UnmarshalWire(d *wire.Decoder) error {
	c.Parts = make([]Particle, d.Count(1+2*3*8))
	for i := range c.Parts {
		p := &c.Parts[i]
		p.ID = d.Varint()
		p.Pos.UnmarshalWire(d)
		p.Vel.UnmarshalWire(d)
	}
	return nil
}

// bandMsg is what the ranks of the MPI reference send each other: a
// run of cells — a ghost plane during a step, a rank's own planes at
// the final gather — and, at the gather, the E values of the same
// planes.
type bandMsg struct {
	Cells []Cell
	E     []Vec3
}

// AppendWire implements wire.Marshaler: both lists counted.
func (m *bandMsg) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendUvarint(buf, uint64(len(m.Cells)))
	for i := range m.Cells {
		buf, _ = m.Cells[i].AppendWire(buf)
	}
	buf = wire.AppendUvarint(buf, uint64(len(m.E)))
	for i := range m.E {
		buf, _ = m.E[i].AppendWire(buf)
	}
	return buf, nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (m *bandMsg) UnmarshalWire(d *wire.Decoder) error {
	m.Cells = make([]Cell, d.Count(1))
	for i := range m.Cells {
		m.Cells[i].UnmarshalWire(d)
	}
	m.E = make([]Vec3, d.Count(3*8))
	for i := range m.E {
		m.E[i].UnmarshalWire(d)
	}
	return nil
}
