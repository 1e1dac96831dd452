package core

import (
	"fmt"

	"allscale/internal/region"
	"allscale/internal/wire"
)

// maxRangeDims bounds the dimensionality of a pfor range on the wire
// (the paper's applications use 1 to 3): a decoder must not size an
// allocation from a count a peer chose.
const maxRangeDims = 8

// AppendWire implements wire.Marshaler: the dimension count, the
// lower then the upper bound as varints, and the extra payload
// length-prefixed. Every pfor task carries one, decoded one to four
// times: by the variant body; by CanSplit where the policy would still
// split; by Reqs, if the call site declares requirements, at a process
// variant's placement and again at its acquisition.
func (a *pforArgs) AppendWire(buf []byte) ([]byte, error) {
	n := len(a.R.Lo)
	if len(a.R.Hi) != n || n > maxRangeDims {
		return nil, fmt.Errorf("core: pfor range %v..%v has no wire form: bounds must agree in dimension and have at most %d",
			a.R.Lo, a.R.Hi, maxRangeDims)
	}
	buf = wire.AppendUvarint(buf, uint64(n))
	for _, v := range a.R.Lo {
		buf = wire.AppendVarint(buf, int64(v))
	}
	for _, v := range a.R.Hi {
		buf = wire.AppendVarint(buf, int64(v))
	}
	return wire.AppendBytes(buf, a.Extra), nil
}

// UnmarshalWire implements wire.Unmarshaler. Both bounds share one
// allocation; Extra aliases the input, which lives as long as the
// task's spec.
func (a *pforArgs) UnmarshalWire(d *wire.Decoder) error {
	n := d.Uvarint()
	if n > maxRangeDims {
		return fmt.Errorf("core: pfor range of %d dimensions exceeds the bound %d", n, maxRangeDims)
	}
	bounds := make(region.Point, 2*n)
	for i := range bounds {
		bounds[i] = d.Int()
	}
	a.R.Lo, a.R.Hi = bounds[:n:n], bounds[n:]
	a.Extra = d.Bytes()
	return nil
}

// decodePForArgs is wire.Decode of a task's pforArgs through a decoder
// on the caller's stack, calling UnmarshalWire on the concrete type: the
// bounds are the one allocation.
func decodePForArgs(args []byte, a *pforArgs) error {
	var d wire.Decoder
	d.Reset(args)
	if err := a.UnmarshalWire(&d); err != nil {
		return err
	}
	return d.Finish()
}

// pforVolume reads the iteration volume of encoded pforArgs without
// decoding them (CanSplit needs nothing else); ok is false for
// malformed arguments.
func pforVolume(args []byte) (v int64, ok bool) {
	var d wire.Decoder
	d.Reset(args)
	n := d.Uvarint()
	if n > maxRangeDims {
		return 0, false
	}
	var lo [maxRangeDims]int
	for i := range n {
		lo[i] = d.Int()
	}
	v = min(int64(n), 1) // Range.Volume: a 0-d range is empty
	for i := range n {
		if hi := d.Int(); hi > lo[i] {
			v *= int64(hi - lo[i])
		} else {
			v = 0
		}
	}
	d.Bytes()
	return v, d.Finish() == nil
}
