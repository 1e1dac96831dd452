package region

import (
	"fmt"
	"slices"
	"strings"
	"unsafe"
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
//
// The corners of a box inside a BoxSet are immutable: the set algebra
// returns boxes, and whole sets, that share corner storage with its
// operands. Code that edits a corner clones it first.
type Box struct {
	Min, Max Point
}

// makeBox returns a box of the given dimensionality whose two corners
// share one allocation.
func makeBox(dims int) Box {
	c := make(Point, 2*dims)
	return Box{Min: c[:dims:dims], Max: c[dims:]}
}

// NewBox constructs a box from copies of its corner points. Both
// points must have the same dimensionality.
func NewBox(min, max Point) Box {
	if len(min) != len(max) {
		panic(fmt.Sprintf("region: box corners of different dimensionality: %d vs %d", len(min), len(max)))
	}
	b := makeBox(len(min))
	copy(b.Min, min)
	copy(b.Max, max)
	return b
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

// Intersect returns the intersection of two boxes: the zero Box when
// they are disjoint, one of them when it lies inside the other, and a
// new box only otherwise.
func (b Box) Intersect(o Box) Box {
	switch {
	case !b.Intersects(o):
		return Box{}
	case b.within(o):
		return b
	case o.within(b):
		return o
	}
	return b.clip(o)
}

// clip builds the intersection of two boxes that meet.
func (b Box) clip(o Box) Box {
	r := makeBox(len(b.Min))
	for i := range r.Min {
		r.Min[i], r.Max[i] = max(b.Min[i], o.Min[i]), min(b.Max[i], o.Max[i])
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

// overlap returns the number of points b and o share, from the corners.
func (b Box) overlap(o Box) int64 {
	n := int64(1)
	for i := range b.Min {
		e := min(b.Max[i], o.Max[i]) - max(b.Min[i], o.Min[i])
		if e <= 0 {
			return 0
		}
		n *= int64(e)
	}
	return n
}

// within reports whether the non-empty box b lies inside o.
func (b Box) within(o Box) bool {
	for i := range b.Min {
		if b.Min[i] < o.Min[i] || o.Max[i] < b.Max[i] {
			return false
		}
	}
	return true
}

// subtract appends the pieces of b ∖ o to out, a slab decomposition
// along each axis (at most 2·dims pieces, their corners in one block):
// b itself when o does not meet it, nothing when o covers it.
func (b Box) subtract(o Box, out []Box) []Box {
	if !b.Intersects(o) {
		return append(out, b)
	}
	dims, n := len(b.Min), 0
	for d := range dims {
		if b.Min[d] < o.Min[d] {
			n++
		}
		if o.Max[d] < b.Max[d] {
			n++
		}
	}
	if n == 0 {
		return out
	}
	c := make(Point, 2*dims*n)
	for d := range dims {
		if b.Min[d] < o.Min[d] {
			out = append(out, b.slab(o, d, b.Min[d], o.Min[d], c))
			c = c[2*dims:]
		}
		if o.Max[d] < b.Max[d] {
			out = append(out, b.slab(o, d, o.Max[d], b.Max[d], c))
			c = c[2*dims:]
		}
	}
	return out
}

// slab builds in c the piece of b ∖ o that spans [from, to) on axis d:
// clipped to o on the axes before d (whose slabs took the rest), b's
// whole extent on the axes after it.
func (b Box) slab(o Box, d, from, to int, c Point) Box {
	dims := len(b.Min)
	s := Box{Min: c[:dims:dims], Max: c[dims : 2*dims : 2*dims]}
	for i := range d {
		s.Min[i], s.Max[i] = max(b.Min[i], o.Min[i]), min(b.Max[i], o.Max[i])
	}
	s.Min[d], s.Max[d] = from, to
	copy(s.Min[d+1:], b.Min[d+1:])
	copy(s.Max[d+1:], b.Max[d+1:])
	return s
}

func (b Box) String() string { return b.Min.String() + ".." + b.Max.String() }

// pieceBuf is the working storage of one box minus a set of boxes: two
// piece lists that trade places per subtracted box, on the caller's
// stack (a list that outgrows it moves to the heap by itself).
type pieceBuf struct{ a, b [8]Box }

// minus appends to out the parts of x outside every box of o: x itself
// when no box of o meets it (met is false), nothing when they cover it.
func (pb *pieceBuf) minus(out []Box, x Box, o []Box) (_ []Box, met bool) {
	i := 0
	for i < len(o) && !x.Intersects(o[i]) {
		i++
	}
	if i == len(o) {
		return append(out, x), false
	}
	cur, next := append(pb.a[:0], x), pb.b[:0]
	for _, y := range o[i:] {
		next = next[:0]
		for _, p := range cur {
			next = p.subtract(y, next)
		}
		cur, next = next, cur
		if len(cur) == 0 {
			break
		}
	}
	return append(out, cur...), true
}

// BoxSet is the region type for N-dimensional grids (Fig. 4a): a set
// of pairwise disjoint axis-aligned boxes. Unlike individual boxes,
// box sets are closed under union, intersection and set-difference.
// The zero value is the empty region.
//
// A set is immutable, and so are its boxes' corners. An operation
// allocates only what its answer newly contains: an operand that is
// the answer is returned as it is, and a box that comes through
// unchanged keeps its corners.
//
// A set is one pointer, so a struct holding only a set (the grid
// region of package dataitem) is stored in an interface without being
// copied to the heap: an answer that is an operand costs nothing. It
// points at the first of the set's boxes, which lie in one allocation
// and are followed by a zero Box that ends them.
type BoxSet struct{ p *Box }

var _ Region[BoxSet] = BoxSet{}

// makeSet returns the set of the given disjoint boxes, copied into one
// allocation with room for the zero box that ends them.
func makeSet(boxes ...[]Box) BoxSet {
	n := 0
	for _, b := range boxes {
		n += len(b)
	}
	if n == 0 {
		return BoxSet{}
	}
	st := make([]Box, 0, n+1)
	for _, b := range boxes {
		st = append(st, b...)
	}
	return BoxSet{&st[:n+1][0]}
}

// bx is the set's boxes (none for the empty set).
func (s BoxSet) bx() []Box {
	if s.p == nil {
		return nil
	}
	n := 1
	for (*Box)(unsafe.Add(unsafe.Pointer(s.p), uintptr(n)*unsafe.Sizeof(Box{}))).Min != nil {
		n++
	}
	return unsafe.Slice(s.p, n)
}

// NewBoxSet constructs a BoxSet from arbitrary (possibly overlapping)
// boxes. Empty boxes are dropped; overlaps are resolved so the stored
// boxes are pairwise disjoint. All boxes must share a dimensionality.
// A box stored whole keeps its corners, which must not change after.
func NewBoxSet(boxes ...Box) BoxSet {
	dims := 0
	var buf [8]Box
	out := buf[:0]
	var pb pieceBuf
	for _, b := range boxes {
		if b.IsEmpty() {
			continue
		}
		if dims != 0 && dims != b.Dims() {
			panic(fmt.Sprintf("region: mixing %d-d and %d-d boxes in one BoxSet", dims, b.Dims()))
		}
		dims = b.Dims()
		out, _ = pb.minus(out, b, out)
	}
	return makeSet(out)
}

// BoxFromTo returns the region covering the single box [min, max).
func BoxFromTo(min, max Point) BoxSet { return NewBoxSet(NewBox(min, max)) }

// Dims returns the dimensionality of the region, or 0 when empty.
func (s BoxSet) Dims() int {
	if s.p == nil {
		return 0
	}
	return len(s.p.Min)
}

// Boxes returns a copy of the disjoint boxes making up the region.
func (s BoxSet) Boxes() []Box {
	out := make([]Box, len(s.bx()))
	copy(out, s.bx())
	return out
}

// match panics unless s is empty or has the given dimensionality:
// combining regions of different ones is a programming error (a region
// from a peer's frame is checked before it meets the algebra).
func (s BoxSet) match(dims int) {
	if s.Dims() != 0 && s.Dims() != dims {
		panic(fmt.Sprintf("region: mixing %d-d and %d-d boxes in one BoxSet", s.Dims(), dims))
	}
}

// Identical reports whether s and o are one value — the same boxes in
// the same storage, as when an operation returned its operand. It
// answers from the representation; Equal compares the points.
func (s BoxSet) Identical(o BoxSet) bool {
	return s.p == o.p
}

// IsEmpty reports whether the region contains no points.
func (s BoxSet) IsEmpty() bool { return s.p == nil }

// Size returns the number of points in the region.
func (s BoxSet) Size() int64 {
	var n int64
	for _, b := range s.bx() {
		n += b.Size()
	}
	return n
}

// Contains reports whether point p lies in the region.
func (s BoxSet) Contains(p Point) bool {
	for _, b := range s.bx() {
		if b.Contains(p) {
			return true
		}
	}
	return false
}

// Union returns the set union of s and o: s followed by the parts of
// o's boxes outside it — s itself when there are none, o itself when
// every box of s lies inside one of o's.
func (s BoxSet) Union(o BoxSet) BoxSet {
	switch {
	case o.IsEmpty():
		return s
	case s.IsEmpty():
		return o
	}
	s.match(o.Dims())
	if s.within(o) {
		return o
	}
	var pb pieceBuf
	var buf [8]Box
	extra := buf[:0]
	for _, b := range o.bx() {
		extra, _ = pb.minus(extra, b, s.bx())
	}
	if len(extra) == 0 {
		return s
	}
	return makeSet(s.bx(), extra)
}

// within reports whether every box of s lies inside one box of o.
func (s BoxSet) within(o BoxSet) bool {
outer:
	for _, a := range s.bx() {
		for _, b := range o.bx() {
			if a.within(b) {
				continue outer
			}
		}
		return false
	}
	return true
}

// Intersect returns the set intersection of s and o. Pairwise
// intersections of two disjoint families are themselves disjoint. When
// every box of one operand lies inside a box of the other, that operand
// is the answer.
func (s BoxSet) Intersect(o BoxSet) BoxSet {
	if s.IsEmpty() || o.IsEmpty() {
		return BoxSet{}
	}
	s.match(o.Dims())
	var buf [8]Box
	out := buf[:0]
	inS, inO := 0, 0 // boxes of s (of o) inside a box of the other
	for _, a := range s.bx() {
		for _, b := range o.bx() {
			switch {
			case !a.Intersects(b):
			case a.within(b):
				out = append(out, a)
				inS++
				if b.within(a) {
					inO++
				}
			case b.within(a):
				out = append(out, b)
				inO++
			default:
				out = append(out, a.clip(b))
			}
		}
	}
	switch {
	case inS == len(s.bx()):
		return s
	case inO == len(o.bx()):
		return o
	case len(out) == 0:
		return BoxSet{}
	}
	return makeSet(out)
}

// Difference returns the points of s not in o: s itself when o meets
// none of its boxes.
func (s BoxSet) Difference(o BoxSet) BoxSet {
	if s.IsEmpty() || o.IsEmpty() {
		return s
	}
	s.match(o.Dims())
	var pb pieceBuf
	var buf [8]Box
	out := buf[:0]
	touched := false
	for _, a := range s.bx() {
		var met bool
		out, met = pb.minus(out, a, o.bx())
		touched = touched || met
	}
	switch {
	case !touched:
		return s
	case len(out) == 0:
		return BoxSet{}
	}
	return makeSet(out)
}

// Equal reports extensional equality: the same points are covered,
// regardless of how they are decomposed into boxes. Nothing is built:
// the same decomposition box for box (a lookup key against a probe built
// by the same code) is equal, and otherwise two sets are equal when both
// have as many points as they share — summed over pairs of boxes, since
// the boxes of one set are disjoint.
func (s BoxSet) Equal(o BoxSet) bool {
	if slices.EqualFunc(s.bx(), o.bx(), func(a, b Box) bool { return a.Min.Equal(b.Min) && a.Max.Equal(b.Max) }) {
		return true
	}
	n := s.Size()
	if n != o.Size() || s.Dims() != o.Dims() {
		return false
	}
	var shared int64
	for _, a := range s.bx() {
		for _, b := range o.bx() {
			shared += a.overlap(b)
		}
	}
	return shared == n
}

// BoundingBox returns the smallest box containing the region. The
// second result is false when the region is empty.
func (s BoxSet) BoundingBox() (Box, bool) {
	if s.IsEmpty() {
		return Box{}, false
	}
	bb := NewBox(s.bx()[0].Min, s.bx()[0].Max)
	for _, b := range s.bx()[1:] {
		for d := 0; d < s.Dims(); d++ {
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
	p := make(Point, s.Dims())
	for _, b := range s.bx() {
		copy(p, b.Min)
		for {
			fn(p)
			d := s.Dims() - 1
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
	parts := make([]string, len(s.bx()))
	for i, b := range s.bx() {
		parts[i] = b.String()
	}
	return "{" + strings.Join(parts, " ") + "}"
}
