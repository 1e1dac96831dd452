// Package region implements the region algebra of the AllScale
// application model (Definition 2.2 of the paper).
//
// A region is an addressable subset of the elements of a data item.
// To be usable by the runtime system for distributing data, a region
// type must be closed under union, intersection and set-difference,
// must be efficient in both space and time (explicit element
// enumerations are valid but impractical), and must be able to
// accurately express the regions of interest of the algorithms applied
// to the associated data structure (Section 3.1).
//
// The package provides the region types of the paper's prototype:
//
//   - BoxSet: sets of axis-aligned N-dimensional boxes, for grids
//     (Fig. 4a) and so for arrays, the 1-d grids. Individual boxes are
//     not closed under union or difference; sets of boxes are.
//   - TreeRegion: flexible binary-tree regions described by included
//     and excluded subtrees (Fig. 4b).
//   - BlockedTreeRegion: coarse-grained tree regions described by a
//     bit mask over one root tree and 2^h subtrees (Fig. 4c).
//   - ElemSet: explicit element enumerations, the reference
//     implementation used by the executable formal model and by
//     property tests as ground truth.
package region

// Region is the contract every region type must satisfy. It is a
// "self-type" generic interface: a concrete region type R implements
// Region[R], so that the algebra stays closed over the concrete type.
//
// All operations must be pure: they leave their operands untouched, and
// the values they return are immutable too, so an answer may share
// storage with an operand or be one.
type Region[R any] interface {
	// Union returns the set union of the receiver and other.
	Union(other R) R
	// Intersect returns the set intersection of the receiver and other.
	Intersect(other R) R
	// Difference returns the elements of the receiver not in other.
	Difference(other R) R
	// IsEmpty reports whether the region contains no elements.
	IsEmpty() bool
	// Equal reports whether both regions contain exactly the same
	// elements. Representations may differ; equality is extensional.
	Equal(other R) bool
	// Size returns the number of addressable elements in the region.
	Size() int64
}
