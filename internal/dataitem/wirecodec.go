package dataitem

import (
	"fmt"

	"allscale/internal/region"
	"allscale/internal/wire"
)

// This file implements the compact binary forms of the two region
// schemes, shared by the fragment payloads and by the DIM message
// headers that carry Region values (DESIGN.md §6a "Wire formats").

// appendBox appends one axis-aligned box as dims + varint corners.
func appendBox(buf []byte, b region.Box) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(b.Min)))
	for _, v := range b.Min {
		buf = wire.AppendVarint(buf, int64(v))
	}
	for _, v := range b.Max {
		buf = wire.AppendVarint(buf, int64(v))
	}
	return buf
}

func decodeBox(d *wire.Decoder) region.Box {
	dims := int(d.Uvarint())
	if d.Err() != nil {
		return region.Box{}
	}
	if dims <= 0 || dims > 64 {
		d.Failf("box dimensionality %d out of range", dims)
		return region.Box{}
	}
	b := region.Box{Min: make(region.Point, dims), Max: make(region.Point, dims)}
	for i := range b.Min {
		b.Min[i] = int(d.Varint())
	}
	for i := range b.Max {
		b.Max[i] = int(d.Varint())
	}
	return b
}

// Region wire kinds. 2 is not one: the grid and tree kinds keep the
// bytes they have always had.
const (
	regionWireNil  byte = 0
	regionWireGrid byte = 1
	regionWireTree byte = 3
)

// AppendRegionWire appends the compact binary form of r, one of the
// two region schemes (grid box sets, tree regions) or nil; any other
// dynamic Region type is an error.
func AppendRegionWire(buf []byte, r Region) ([]byte, error) {
	switch v := r.(type) {
	case nil:
		return append(buf, regionWireNil), nil
	case GridRegion:
		buf = append(buf, regionWireGrid)
		boxes := v.B.Boxes()
		buf = wire.AppendUvarint(buf, uint64(len(boxes)))
		for _, b := range boxes {
			buf = appendBox(buf, b)
		}
		return buf, nil
	case TreeItemRegion:
		buf = append(buf, regionWireTree)
		buf = wire.AppendUvarint(buf, uint64(v.T.Height()))
		ops := v.T.Ops()
		buf = wire.AppendUvarint(buf, uint64(len(ops)))
		for _, op := range ops {
			buf = wire.AppendBool(buf, op.Add)
			buf = wire.AppendUvarint(buf, uint64(op.Node))
		}
		return buf, nil
	default:
		return nil, fmt.Errorf("dataitem: region type %T has no wire form", r)
	}
}

// DecodeRegionWire reads a region appended by AppendRegionWire. Every
// count is bounded by the bytes left before anything is sized from it.
func DecodeRegionWire(d *wire.Decoder) (Region, error) {
	kind := d.Byte()
	if err := d.Err(); err != nil {
		return nil, err
	}
	switch kind {
	case regionWireNil:
		return nil, nil
	case regionWireGrid:
		n := d.Count(3) // dimension count and two corners
		boxes := make([]region.Box, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			b := decodeBox(d)
			if i > 0 && b.Dims() != boxes[0].Dims() {
				d.Failf("boxes of %d and %d dimensions in one region", boxes[0].Dims(), b.Dims())
			}
			boxes = append(boxes, b)
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
		return GridRegion{B: region.NewBoxSet(boxes...)}, nil
	case regionWireTree:
		height := int(d.Uvarint())
		n := d.Count(2)
		ops := make([]region.TreeOp, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			add := d.Bool()
			node := region.NodeID(d.Uvarint())
			ops = append(ops, region.TreeOp{Add: add, Node: node})
		}
		if err := d.Err(); err != nil {
			return nil, err
		}
		return TreeItemRegion{T: region.ApplyTreeOps(height, ops)}, nil
	default:
		return nil, fmt.Errorf("dataitem: unknown region wire kind 0x%02x", kind)
	}
}
