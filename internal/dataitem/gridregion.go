package dataitem

import "allscale/internal/region"

// GridRegion adapts region.BoxSet — sets of axis-aligned bounding
// boxes, the region scheme of the N-dimensional grid items of
// Fig. 4a — to the dynamic Region interface.
type GridRegion struct {
	B region.BoxSet
}

var _ Region = GridRegion{}

// emptyGrid is the empty grid region, boxed once.
var emptyGrid Region = GridRegion{}

// GridRegionFromTo returns the grid region covering [min, max).
func GridRegionFromTo(min, max region.Point) GridRegion {
	return GridRegion{B: region.BoxFromTo(min, max)}
}

// gridResult boxes an answer of the algebra whose second operand was
// other (holding o): an empty answer, and other when the algebra
// returned it as it was, are handed back without boxing anew.
func gridResult(b region.BoxSet, other Region, o region.BoxSet) Region {
	switch {
	case b.IsEmpty():
		return emptyGrid
	case b.Identical(o):
		return other
	}
	return GridRegion{B: b}
}

// Union implements Region.
func (g GridRegion) Union(other Region) Region {
	o := operand("union", g, other).B
	return gridResult(g.B.Union(o), other, o)
}

// Intersect implements Region.
func (g GridRegion) Intersect(other Region) Region {
	o := operand("intersect", g, other).B
	return gridResult(g.B.Intersect(o), other, o)
}

// Difference implements Region.
func (g GridRegion) Difference(other Region) Region {
	o := operand("difference", g, other).B
	return gridResult(g.B.Difference(o), other, o)
}

// IsEmpty implements Region.
func (g GridRegion) IsEmpty() bool { return g.B.IsEmpty() }

// Equal implements Region.
func (g GridRegion) Equal(other Region) bool {
	o, ok := other.(GridRegion)
	if !ok {
		return false
	}
	return g.B.Equal(o.B)
}

// Size implements Region.
func (g GridRegion) Size() int64 { return g.B.Size() }

func (g GridRegion) String() string { return g.B.String() }
