package jobs

import "allscale/internal/wire"

// Binary wire forms of what the workload families hand the scheduler
// as task arguments (DESIGN.md §6a): the DAG family's per-task
// dagArgs, and the parameter structs the single-task tpc and ipic3d
// families run from. The stencil family's arguments are core's
// pforArgs. The JSON tags on the parameter structs serve the client
// protocol only; between localities they travel in this form.

// AppendWire implements wire.Marshaler.
func (a *dagArgs) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendVarint(buf, int64(a.Levels))
	buf = wire.AppendVarint(buf, int64(a.Spin))
	return wire.AppendUvarint(buf, a.Seed), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (a *dagArgs) UnmarshalWire(d *wire.Decoder) error {
	a.Levels = d.Int()
	a.Spin = d.Int()
	a.Seed = d.Uvarint()
	return nil
}

// AppendWire implements wire.Marshaler.
func (p *TPCParams) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendVarint(buf, int64(p.NumPoints))
	buf = wire.AppendVarint(buf, int64(p.Height))
	buf = wire.AppendFloat64(buf, p.Radius)
	buf = wire.AppendVarint(buf, int64(p.NumQueries))
	return wire.AppendVarint(buf, p.Seed), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (p *TPCParams) UnmarshalWire(d *wire.Decoder) error {
	p.NumPoints = d.Int()
	p.Height = d.Int()
	p.Radius = d.Float64()
	p.NumQueries = d.Int()
	p.Seed = d.Varint()
	return nil
}

// AppendWire implements wire.Marshaler.
func (p *IPiC3DParams) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendVarint(buf, int64(p.N))
	buf = wire.AppendVarint(buf, int64(p.Steps))
	buf = wire.AppendVarint(buf, int64(p.PartsPerCell))
	buf = wire.AppendFloat64(buf, p.Dt)
	return wire.AppendVarint(buf, p.Seed), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (p *IPiC3DParams) UnmarshalWire(d *wire.Decoder) error {
	p.N = d.Int()
	p.Steps = d.Int()
	p.PartsPerCell = d.Int()
	p.Dt = d.Float64()
	p.Seed = d.Varint()
	return nil
}
