package dim

import (
	"allscale/internal/dataitem"
	"allscale/internal/wire"
)

// The DIM's request/reply headers and their hand-written binary codecs
// (DESIGN.md §6a "Wire formats"). Region fields use the compact region
// wire form from the dataitem package.

type (
	destroyArgs struct {
		ID ItemID
	}
	reportArgs struct {
		Item   ItemID
		Level  int // the parent's level receiving the report
		Left   bool
		Region dataitem.Region
		Seq    uint64
	}
	// itemRegion names a region of one item: what a fetch, a drop and a
	// cache revocation (cinvArgs) ask about.
	itemRegion struct {
		Item   ItemID
		Region dataitem.Region
	}
	fetchArgs  = itemRegion
	dropArgs   = itemRegion
	fetchReply struct {
		Data []byte
		// Part is the region actually exported — the request clipped
		// to the source's coverage at execution time.
		Part  dataitem.Region
		Empty bool
		// PinToken names the temporary read lock the source holds on
		// Part until the caller confirms (dim.unpin) that the new copy
		// is registered in the index. Without it, a write acquisition
		// could miss the copy in flight and later be overwritten by its
		// stale data.
		PinToken uint64
	}
	// unpinArgs is a dim.unpin notice, and the form of a dim.reclaim: the
	// holder asks its pin Token back.
	unpinArgs struct {
		Token uint64
		// Data, when the token names a write-mode pin, is the writer's
		// final content of the pinned part, to be installed before the
		// pin goes; without it the part is stale and really dropped. Read
		// marks a claim's content: what the holder read (owe).
		Data []byte
		Read bool
	}
	claimArgs struct {
		Item   ItemID
		Region dataitem.Region
		// Alloc claims the part of Region allocated nowhere yet, Root
		// the part whose root copy exists nowhere yet; with both set
		// (first touch) the grant is the part that passes both.
		Alloc, Root bool
		Epoch       uint64 // the claimant's recovery epoch (grantClaim)
	}
	claimReply struct {
		Granted dataitem.Region
	}
	dropReply struct {
		// Sharers are the evicted holder's own lent records intersecting
		// the dropped region, for the evictor to chase.
		Sharers []Located
		// Root is the part of the dropped region the holder held the
		// root copy of: the evictor's copy is the root copy from now on.
		Root dataitem.Region
		// Contended turns the drop away, nothing dropped: the holder has
		// write-locked an overlapping region and outranks the evictor
		// (see itemState.drop).
		Contended bool
		// Kept is the part of the dropped region the holder did not
		// remove: a replica read since it was installed stays in place,
		// write-locked under PinToken on the evictor's behalf until the
		// evictor's dim.unpin delivers its new content.
		Kept     dataitem.Region
		PinToken uint64
	}
	// Carried is the reply of a drop served ahead of its request
	// (Manager.Carry), riding with the shipped task whose acquisition
	// would have sent it: the origin keeps Kept of Item write-pinned
	// under Token for the task's refresh.
	Carried struct {
		Item  ItemID
		Kept  dataitem.Region
		Token uint64
	}
	// carryArgs is a dim.carry notice: a part the holder gave back as its
	// reader let go (giveBack), as a ship carries one, and the holder's
	// recovery epoch (handleCarry).
	carryArgs struct {
		Carried
		Epoch uint64
	}
	// batchReq is one resolution sub-request of a dim.resolveBatch
	// frame; All selects full-descent (Owners-style) resolution.
	batchReq struct {
		Item    ItemID
		Region  dataitem.Region
		Level   int
		Descend bool
		All     bool
	}
	batchArgs struct {
		Reqs []batchReq
	}
	batchReply struct {
		Replies [][]Located // one per request
	}
)

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
	a.Reqs = nil
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
	r.Replies = nil
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
	return wire.AppendBool(wire.AppendBytes(wire.AppendUvarint(buf, a.Token), a.Data), a.Read), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (a *unpinArgs) UnmarshalWire(d *wire.Decoder) error {
	a.Token = d.Uvarint()
	a.Data = d.Bytes()
	a.Read = d.Bool()
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

// MinCarriedBytes is the least a Carried takes on the wire, for a
// decoder to bound a count of them by the bytes that follow.
const MinCarriedBytes = 3

// AppendWire implements wire.Marshaler.
func (c *Carried) AppendWire(buf []byte) ([]byte, error) {
	buf, err := dataitem.AppendRegionWire(wire.AppendUvarint(buf, uint64(c.Item)), c.Kept)
	if err != nil {
		return nil, err
	}
	return wire.AppendUvarint(buf, c.Token), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (c *Carried) UnmarshalWire(d *wire.Decoder) (err error) {
	c.Item = ItemID(d.Uvarint())
	if c.Kept, err = dataitem.DecodeRegionWire(d); err != nil {
		return err
	}
	c.Token = d.Uvarint()
	return nil
}

// AppendWire implements wire.Marshaler.
func (a *carryArgs) AppendWire(buf []byte) ([]byte, error) {
	buf, err := a.Carried.AppendWire(buf)
	if err != nil {
		return nil, err
	}
	return wire.AppendUvarint(buf, a.Epoch), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (a *carryArgs) UnmarshalWire(d *wire.Decoder) error {
	if err := a.Carried.UnmarshalWire(d); err != nil {
		return err
	}
	a.Epoch = d.Uvarint()
	return nil
}
