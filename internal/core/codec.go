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

// UnmarshalWire implements wire.Unmarshaler. Both bounds and the
// cursor share one allocation; Extra aliases the input, which lives as
// long as the task's spec.
func (a *pforArgs) UnmarshalWire(d *wire.Decoder) error {
	n := d.Uvarint()
	if n > maxRangeDims {
		return fmt.Errorf("core: pfor range of %d dimensions exceeds the bound %d", n, maxRangeDims)
	}
	bounds := make(region.Point, 3*n)
	for i := range bounds[:2*n] {
		bounds[i] = d.Int()
	}
	a.R.Lo, a.R.Hi, a.cursor = bounds[:n:n], bounds[n:2*n:2*n], bounds[2*n:]
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

// pforKids holds a split's two children's encoded arguments —
// args[0] the left half, args[1] the right — in one allocation: both
// are slices of buf unless they outgrow it.
type pforKids struct {
	args [2]wire.Payload
	buf  [pforKidsInline]byte
}

// pforKidsInline is room for both children of a 3-d range with a few
// dozen bytes of extra payload; a pforKids is then 160 bytes.
const pforKidsInline = 112

// splitPForArgs halves encoded pforArgs along their widest dimension,
// as Range.Split does, and encodes both halves — without decoding the
// bounds into Ranges or the halves into pforArgs.
func splitPForArgs(args []byte) (*pforKids, error) {
	var d wire.Decoder
	d.Reset(args)
	n := d.Uvarint()
	if n > maxRangeDims {
		return nil, fmt.Errorf("core: pfor range of %d dimensions exceeds the bound %d", n, maxRangeDims)
	}
	var lo, hi [maxRangeDims]int
	for i := range n {
		lo[i] = d.Int()
	}
	for i := range n {
		hi[i] = d.Int()
	}
	extra := d.Bytes()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	widest, extent := 0, 0
	for i := range int(n) {
		if e := hi[i] - lo[i]; e > extent {
			widest, extent = i, e
		}
	}
	mid := lo[widest] + extent/2
	k := new(pforKids)
	buf := k.buf[:0]
	var ends [2]int
	for c := range ends {
		buf = append(buf, wire.FormatBinary)
		buf = wire.AppendUvarint(buf, n)
		for i := range int(n) {
			v := lo[i]
			if c == 1 && i == widest {
				v = mid
			}
			buf = wire.AppendVarint(buf, int64(v))
		}
		for i := range int(n) {
			v := hi[i]
			if c == 0 && i == widest {
				v = mid
			}
			buf = wire.AppendVarint(buf, int64(v))
		}
		buf = wire.AppendBytes(buf, extra)
		ends[c] = len(buf)
	}
	// Sliced only now: an append past buf's capacity moved it.
	k.args[0] = wire.Payload(buf[:ends[0]:ends[0]])
	k.args[1] = wire.Payload(buf[ends[0]:ends[1]:ends[1]])
	return k, nil
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
