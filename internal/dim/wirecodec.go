package dim

import (
	"allscale/internal/dataitem"
	"allscale/internal/wire"
)

// Hand-written binary codecs for the DIM's request/reply headers
// (DESIGN.md §6a "Wire formats"). Region fields use the compact
// region wire form from the dataitem package.

// AppendWire implements wire.Marshaler.
func (a *createArgs) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendUvarint(buf, uint64(a.ID))
	return wire.AppendString(buf, a.TypeName), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (a *createArgs) UnmarshalWire(d *wire.Decoder) error {
	a.ID = ItemID(d.Uvarint())
	a.TypeName = d.String()
	return nil
}

// AppendWire implements wire.Marshaler.
func (a *destroyArgs) AppendWire(buf []byte) ([]byte, error) {
	return wire.AppendUvarint(buf, uint64(a.ID)), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (a *destroyArgs) UnmarshalWire(d *wire.Decoder) error {
	a.ID = ItemID(d.Uvarint())
	return nil
}

// AppendWire implements wire.Marshaler.
func (a *reportArgs) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendUvarint(buf, uint64(a.Item))
	buf = wire.AppendVarint(buf, int64(a.Level))
	buf = wire.AppendBool(buf, a.Left)
	buf, err := dataitem.AppendRegionWire(buf, a.Region)
	if err != nil {
		return nil, err
	}
	return wire.AppendUvarint(buf, a.Seq), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (a *reportArgs) UnmarshalWire(d *wire.Decoder) error {
	a.Item = ItemID(d.Uvarint())
	a.Level = d.Int()
	a.Left = d.Bool()
	r, err := dataitem.DecodeRegionWire(d)
	if err != nil {
		return err
	}
	a.Region = r
	a.Seq = d.Uvarint()
	return nil
}

// appendLocated appends a counted list of (region, rank) pairs: the
// form of resolution results and of sharer records.
func appendLocated(buf []byte, entries []Located) ([]byte, error) {
	buf = wire.AppendUvarint(buf, uint64(len(entries)))
	for _, e := range entries {
		var err error
		buf, err = dataitem.AppendRegionWire(buf, e.Region)
		if err != nil {
			return nil, err
		}
		buf = wire.AppendVarint(buf, int64(e.Rank))
	}
	return buf, nil
}

func decodeLocated(d *wire.Decoder) ([]Located, error) {
	var out []Located
	n := d.Count(2) // an entry is at least a region kind byte and a rank
	for i := 0; i < n && d.Err() == nil; i++ {
		reg, err := dataitem.DecodeRegionWire(d)
		if err != nil {
			return nil, err
		}
		out = append(out, Located{Region: reg, Rank: d.Int()})
	}
	return out, nil
}

// AppendWire implements wire.Marshaler.
func (a *batchArgs) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendUvarint(buf, uint64(len(a.Reqs)))
	for _, rq := range a.Reqs {
		buf = wire.AppendUvarint(buf, uint64(rq.Item))
		var err error
		buf, err = dataitem.AppendRegionWire(buf, rq.Region)
		if err != nil {
			return nil, err
		}
		buf = wire.AppendVarint(buf, int64(rq.Level))
		buf = wire.AppendBool(buf, rq.Descend)
		buf = wire.AppendBool(buf, rq.All)
	}
	return buf, nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (a *batchArgs) UnmarshalWire(d *wire.Decoder) error {
	n := int(d.Uvarint())
	for i := 0; i < n && d.Err() == nil; i++ {
		var rq batchReq
		rq.Item = ItemID(d.Uvarint())
		r, err := dataitem.DecodeRegionWire(d)
		if err != nil {
			return err
		}
		rq.Region = r
		rq.Level = d.Int()
		rq.Descend = d.Bool()
		rq.All = d.Bool()
		a.Reqs = append(a.Reqs, rq)
	}
	return nil
}

// AppendWire implements wire.Marshaler.
func (r *batchReply) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendUvarint(buf, uint64(len(r.Replies)))
	for _, entries := range r.Replies {
		var err error
		if buf, err = appendLocated(buf, entries); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *batchReply) UnmarshalWire(d *wire.Decoder) error {
	n := int(d.Uvarint())
	for i := 0; i < n && d.Err() == nil; i++ {
		entries, err := decodeLocated(d)
		if err != nil {
			return err
		}
		r.Replies = append(r.Replies, entries)
	}
	return nil
}

// AppendWire implements wire.Marshaler.
func (a *itemRegion) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendUvarint(buf, uint64(a.Item))
	return dataitem.AppendRegionWire(buf, a.Region)
}

// UnmarshalWire implements wire.Unmarshaler.
func (a *itemRegion) UnmarshalWire(d *wire.Decoder) error {
	a.Item = ItemID(d.Uvarint())
	r, err := dataitem.DecodeRegionWire(d)
	if err != nil {
		return err
	}
	a.Region = r
	return nil
}

// AppendWire implements wire.Marshaler.
func (r *fetchReply) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendBytes(buf, r.Data)
	buf, err := dataitem.AppendRegionWire(buf, r.Part)
	if err != nil {
		return nil, err
	}
	buf = wire.AppendBool(buf, r.Empty)
	return wire.AppendUvarint(buf, r.PinToken), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *fetchReply) UnmarshalWire(d *wire.Decoder) error {
	r.Data = d.Bytes()
	part, err := dataitem.DecodeRegionWire(d)
	if err != nil {
		return err
	}
	r.Part = part
	r.Empty = d.Bool()
	r.PinToken = d.Uvarint()
	return nil
}

// AppendWire implements wire.Marshaler.
func (a *unpinArgs) AppendWire(buf []byte) ([]byte, error) {
	return wire.AppendBytes(wire.AppendUvarint(buf, a.Token), a.Data), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (a *unpinArgs) UnmarshalWire(d *wire.Decoder) error {
	a.Token = d.Uvarint()
	a.Data = d.Bytes()
	return nil
}

// AppendWire implements wire.Marshaler.
func (a *claimArgs) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendUvarint(buf, uint64(a.Item))
	buf, err := dataitem.AppendRegionWire(buf, a.Region)
	if err != nil {
		return nil, err
	}
	return wire.AppendUvarint(wire.AppendBool(wire.AppendBool(buf, a.Alloc), a.Root), a.Epoch), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (a *claimArgs) UnmarshalWire(d *wire.Decoder) error {
	a.Item = ItemID(d.Uvarint())
	r, err := dataitem.DecodeRegionWire(d)
	if err != nil {
		return err
	}
	a.Region = r
	a.Alloc = d.Bool()
	a.Root = d.Bool()
	a.Epoch = d.Uvarint()
	return nil
}

// AppendWire implements wire.Marshaler.
func (r *claimReply) AppendWire(buf []byte) ([]byte, error) {
	return dataitem.AppendRegionWire(buf, r.Granted)
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *claimReply) UnmarshalWire(d *wire.Decoder) error {
	g, err := dataitem.DecodeRegionWire(d)
	if err != nil {
		return err
	}
	r.Granted = g
	return nil
}

// AppendWire implements wire.Marshaler.
func (r *dropReply) AppendWire(buf []byte) ([]byte, error) {
	buf, err := appendLocated(wire.AppendBool(buf, r.Contended), r.Sharers)
	if err != nil {
		return nil, err
	}
	if buf, err = dataitem.AppendRegionWire(buf, r.Root); err != nil {
		return nil, err
	}
	return dataitem.AppendRegionWire(wire.AppendUvarint(buf, r.PinToken), r.Kept)
}

// UnmarshalWire implements wire.Unmarshaler.
func (r *dropReply) UnmarshalWire(d *wire.Decoder) (err error) {
	r.Contended = d.Bool()
	if r.Sharers, err = decodeLocated(d); err != nil {
		return err
	}
	if r.Root, err = dataitem.DecodeRegionWire(d); err != nil {
		return err
	}
	r.PinToken = d.Uvarint()
	r.Kept, err = dataitem.DecodeRegionWire(d)
	return err
}
