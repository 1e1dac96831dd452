package sched

import (
	"allscale/internal/dim"
	"allscale/internal/wire"
)

// Hand-written binary codec for the scheduler's one hot wire type
// (DESIGN.md §6a "Wire formats"): every task that changes rank —
// placed, forwarded or granted — crosses the transport as a runArgs
// envelope in a runBatch.

// minTaskBytes is the least a runArgs envelope takes on the wire: one
// byte for each of the twelve TaskSpec fields, the variant, the granted
// mark and the count of carried evictions. It bounds a batch's
// peer-chosen length by the bytes that follow it.
const minTaskBytes = 15

// appendTaskSpec appends the flat TaskSpec fields.
func appendTaskSpec(buf []byte, s *TaskSpec) []byte {
	buf = wire.AppendUvarint(buf, s.ID)
	buf = wire.AppendString(buf, s.Kind)
	buf = wire.AppendBytes(buf, s.Args)
	buf = wire.AppendVarint(buf, int64(s.Depth))
	buf = wire.AppendUvarint(buf, s.Path)
	buf = wire.AppendVarint(buf, int64(s.PathLen))
	buf = wire.AppendVarint(buf, int64(s.Origin))
	buf = wire.AppendVarint(buf, int64(s.Promise.Owner))
	buf = wire.AppendUvarint(buf, s.Promise.Seq)
	buf = wire.AppendUvarint(buf, s.Span)
	buf = wire.AppendUvarint(buf, uint64(s.Tenant))
	return wire.AppendUvarint(buf, s.Job)
}

func decodeTaskSpec(d *wire.Decoder, s *TaskSpec) {
	s.ID = d.Uvarint()
	s.Kind = d.String()
	s.Args = d.Bytes()
	s.Depth = d.Int()
	s.Path = d.Uvarint()
	s.PathLen = d.Int()
	s.Origin = d.Int()
	s.Promise.Owner = d.Int()
	s.Promise.Seq = d.Uvarint()
	s.Span = d.Uvarint()
	s.Tenant = uint32(d.Uvarint())
	s.Job = d.Uvarint()
}

// AppendWire implements wire.Marshaler.
func (b *runBatch) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendUvarint(buf, uint64(len(b.Tasks)))
	for i := range b.Tasks {
		t := &b.Tasks[i]
		buf = appendTaskSpec(buf, &t.Spec)
		buf = wire.AppendVarint(buf, int64(t.Variant))
		buf = wire.AppendBool(buf, t.Granted)
		buf = wire.AppendUvarint(buf, uint64(len(t.Carried)))
		for j := range t.Carried {
			var err error
			if buf, err = t.Carried[j].AppendWire(buf); err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (b *runBatch) UnmarshalWire(d *wire.Decoder) error {
	if n := d.Count(minTaskBytes); n > 0 {
		b.Tasks = make([]runArgs, n)
	}
	for i := range b.Tasks {
		t := &b.Tasks[i]
		decodeTaskSpec(d, &t.Spec)
		t.Variant = Variant(d.Int())
		t.Granted = d.Bool()
		if n := d.Count(dim.MinCarriedBytes); n > 0 {
			t.Carried = make([]dim.Carried, n)
		}
		for j := range t.Carried {
			if err := t.Carried[j].UnmarshalWire(d); err != nil {
				return err
			}
		}
	}
	return nil
}
