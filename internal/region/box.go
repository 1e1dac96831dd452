package region

import (
	"fmt"
	"slices"
	"strings"
)

// Point is an N-dimensional integer coordinate.
type Point []int

// Clone returns a copy of the point.
func (p Point) Clone() Point {
	q := make(Point, len(p))
	copy(q, p)
	return q
}

// Equal reports component-wise equality.
func (p Point) Equal(q Point) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

func (p Point) String() string {
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = fmt.Sprint(v)
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// Box is an axis-aligned N-dimensional half-open box [Min, Max).
// A single box is not a valid region type on its own: boxes are not
// closed under union or set-difference (Section 3.1). Sets of boxes
// (BoxSet) are.
type Box struct {
	Min, Max Point
}

// NewBox constructs a box from its corner points. Both points must
// have the same dimensionality.
func NewBox(min, max Point) Box {
	if len(min) != len(max) {
		panic(fmt.Sprintf("region: box corners of different dimensionality: %d vs %d", len(min), len(max)))
	}
	return Box{Min: min.Clone(), Max: max.Clone()}
}

// Dims returns the dimensionality of the box.
func (b Box) Dims() int { return len(b.Min) }

// IsEmpty reports whether the box contains no points.
func (b Box) IsEmpty() bool {
	if len(b.Min) == 0 {
		return true
	}
	for i := range b.Min {
		if b.Max[i] <= b.Min[i] {
			return true
		}
	}
	return false
}

// Size returns the number of points in the box.
func (b Box) Size() int64 {
	if b.IsEmpty() {
		return 0
	}
	n := int64(1)
	for i := range b.Min {
		n *= int64(b.Max[i] - b.Min[i])
	}
	return n
}

// Contains reports whether point p lies in the box.
func (b Box) Contains(p Point) bool {
	if len(p) != len(b.Min) {
		return false
	}
	for i := range p {
		if p[i] < b.Min[i] || p[i] >= b.Max[i] {
			return false
		}
	}
	return true
}

// Intersect returns the (possibly empty) intersection of two boxes.
func (b Box) Intersect(o Box) Box {
	r := Box{Min: b.Min.Clone(), Max: b.Max.Clone()}
	for i := range r.Min {
		if o.Min[i] > r.Min[i] {
			r.Min[i] = o.Min[i]
		}
		if o.Max[i] < r.Max[i] {
			r.Max[i] = o.Max[i]
		}
	}
	return r
}

// Intersects reports whether two boxes share at least one point. It
// decides from the corners: no intersection box is built.
func (b Box) Intersects(o Box) bool {
	for i := range b.Min {
		if min(b.Max[i], o.Max[i]) <= max(b.Min[i], o.Min[i]) {
			return false
		}
	}
	return len(b.Min) > 0
}

// subtract returns a set of disjoint boxes covering b ∖ o, using slab
// decomposition along each axis (at most 2·dims pieces).
func (b Box) subtract(o Box) []Box {
	inter := b.Intersect(o)
	if inter.IsEmpty() {
		return []Box{b}
	}
	var out []Box
	rest := Box{Min: b.Min.Clone(), Max: b.Max.Clone()}
	for d := range b.Min {
		if rest.Min[d] < inter.Min[d] {
			lower := Box{Min: rest.Min.Clone(), Max: rest.Max.Clone()}
			lower.Max[d] = inter.Min[d]
			out = append(out, lower)
			rest.Min[d] = inter.Min[d]
		}
		if inter.Max[d] < rest.Max[d] {
			upper := Box{Min: rest.Min.Clone(), Max: rest.Max.Clone()}
			upper.Min[d] = inter.Max[d]
			out = append(out, upper)
			rest.Max[d] = inter.Max[d]
		}
	}
	return out
}

func (b Box) String() string { return b.Min.String() + ".." + b.Max.String() }

// BoxSet is the region type for N-dimensional grids (Fig. 4a): a set
// of pairwise disjoint axis-aligned boxes. Unlike individual boxes,
// box sets are closed under union, intersection and set-difference.
// The zero value is the empty region.
type BoxSet struct {
	dims  int
	boxes []Box
}

var _ Region[BoxSet] = BoxSet{}

// NewBoxSet constructs a BoxSet from arbitrary (possibly overlapping)
// boxes. Empty boxes are dropped; overlaps are resolved so the stored
// boxes are pairwise disjoint. All boxes must share a dimensionality.
func NewBoxSet(boxes ...Box) BoxSet {
	var s BoxSet
	for _, b := range boxes {
		s = s.addBox(b)
	}
	return s
}

// BoxFromTo returns the region covering the single box [min, max).
func BoxFromTo(min, max Point) BoxSet { return NewBoxSet(NewBox(min, max)) }

// Dims returns the dimensionality of the region, or 0 when empty.
func (s BoxSet) Dims() int { return s.dims }

// Boxes returns a copy of the disjoint boxes making up the region.
func (s BoxSet) Boxes() []Box {
	out := make([]Box, len(s.boxes))
	copy(out, s.boxes)
	return out
}

// addBox inserts box b, keeping the stored boxes disjoint by adding
// only the parts of b not already covered.
func (s BoxSet) addBox(b Box) BoxSet {
	if b.IsEmpty() {
		return s
	}
	if s.dims == 0 {
		s.dims = b.Dims()
	} else if s.dims != b.Dims() {
		panic(fmt.Sprintf("region: mixing %d-d and %d-d boxes in one BoxSet", s.dims, b.Dims()))
	}
	pieces := []Box{b}
	for _, have := range s.boxes {
		var next []Box
		for _, p := range pieces {
			next = append(next, p.subtract(have)...)
		}
		pieces = next
		if len(pieces) == 0 {
			return s
		}
	}
	out := make([]Box, 0, len(s.boxes)+len(pieces))
	out = append(out, s.boxes...)
	out = append(out, pieces...)
	return BoxSet{dims: s.dims, boxes: out}
}

// IsEmpty reports whether the region contains no points.
func (s BoxSet) IsEmpty() bool { return len(s.boxes) == 0 }

// Size returns the number of points in the region.
func (s BoxSet) Size() int64 {
	var n int64
	for _, b := range s.boxes {
		n += b.Size()
	}
	return n
}

// Contains reports whether point p lies in the region.
func (s BoxSet) Contains(p Point) bool {
	for _, b := range s.boxes {
		if b.Contains(p) {
			return true
		}
	}
	return false
}

// Union returns the set union of s and o.
func (s BoxSet) Union(o BoxSet) BoxSet {
	out := s
	for _, b := range o.boxes {
		out = out.addBox(b)
	}
	return out
}

// Intersect returns the set intersection of s and o. Pairwise
// intersections of two disjoint families are themselves disjoint.
func (s BoxSet) Intersect(o BoxSet) BoxSet {
	if s.IsEmpty() || o.IsEmpty() {
		return BoxSet{}
	}
	var out []Box
	for _, a := range s.boxes {
		for _, b := range o.boxes {
			if in := a.Intersect(b); !in.IsEmpty() {
				out = append(out, in)
			}
		}
	}
	if len(out) == 0 {
		return BoxSet{}
	}
	return BoxSet{dims: s.dims, boxes: out}
}

// Difference returns the points of s not in o.
func (s BoxSet) Difference(o BoxSet) BoxSet {
	if s.IsEmpty() || o.IsEmpty() {
		return s
	}
	var out []Box
	for _, a := range s.boxes {
		pieces := []Box{a}
		for _, b := range o.boxes {
			var next []Box
			for _, p := range pieces {
				next = append(next, p.subtract(b)...)
			}
			pieces = next
			if len(pieces) == 0 {
				break
			}
		}
		out = append(out, pieces...)
	}
	if len(out) == 0 {
		return BoxSet{}
	}
	return BoxSet{dims: s.dims, boxes: out}
}

// Equal reports extensional equality: the same points are covered,
// regardless of how they are decomposed into boxes. Two cases are
// answered without allocating — the same decomposition box for box (a
// lookup key against a probe built by the same code) and a different
// number of points — the rest by the two differences.
func (s BoxSet) Equal(o BoxSet) bool {
	if slices.EqualFunc(s.boxes, o.boxes, func(a, b Box) bool { return a.Min.Equal(b.Min) && a.Max.Equal(b.Max) }) {
		return true
	}
	if s.Size() != o.Size() {
		return false
	}
	return s.Difference(o).IsEmpty() && o.Difference(s).IsEmpty()
}

// BoundingBox returns the smallest box containing the region. The
// second result is false when the region is empty.
func (s BoxSet) BoundingBox() (Box, bool) {
	if s.IsEmpty() {
		return Box{}, false
	}
	bb := Box{Min: s.boxes[0].Min.Clone(), Max: s.boxes[0].Max.Clone()}
	for _, b := range s.boxes[1:] {
		for d := 0; d < s.dims; d++ {
			if b.Min[d] < bb.Min[d] {
				bb.Min[d] = b.Min[d]
			}
			if b.Max[d] > bb.Max[d] {
				bb.Max[d] = b.Max[d]
			}
		}
	}
	return bb, true
}

// ForEachPoint calls fn for every point in the region, in box order.
// fn must not retain the point; it is reused between calls.
func (s BoxSet) ForEachPoint(fn func(Point)) {
	p := make(Point, s.dims)
	for _, b := range s.boxes {
		copy(p, b.Min)
		for {
			fn(p)
			d := s.dims - 1
			for d >= 0 {
				p[d]++
				if p[d] < b.Max[d] {
					break
				}
				p[d] = b.Min[d]
				d--
			}
			if d < 0 {
				break
			}
		}
	}
}

func (s BoxSet) String() string {
	if s.IsEmpty() {
		return "{}"
	}
	parts := make([]string, len(s.boxes))
	for i, b := range s.boxes {
		parts[i] = b.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}
