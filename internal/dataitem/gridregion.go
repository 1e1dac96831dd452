package dataitem

import "allscale/internal/region"

// GridRegion adapts region.BoxSet — sets of axis-aligned bounding
// boxes, the region scheme of the N-dimensional grid items of
// Fig. 4a — to the dynamic Region interface.
type GridRegion struct {
	B region.BoxSet
}

var _ Region = GridRegion{}

// GridRegionFromTo returns the grid region covering [min, max).
func GridRegionFromTo(min, max region.Point) GridRegion {
	return GridRegion{B: region.BoxFromTo(min, max)}
}

// Union implements Region.
func (g GridRegion) Union(other Region) Region {
	o, ok := other.(GridRegion)
	if !ok {
		typeMismatch("union", g, other)
	}
	return GridRegion{B: g.B.Union(o.B)}
}

// Intersect implements Region.
func (g GridRegion) Intersect(other Region) Region {
	o, ok := other.(GridRegion)
	if !ok {
		typeMismatch("intersect", g, other)
	}
	return GridRegion{B: g.B.Intersect(o.B)}
}

// Difference implements Region.
func (g GridRegion) Difference(other Region) Region {
	o, ok := other.(GridRegion)
	if !ok {
		typeMismatch("difference", g, other)
	}
	return GridRegion{B: g.B.Difference(o.B)}
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
