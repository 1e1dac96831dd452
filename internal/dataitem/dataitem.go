// Package dataitem implements the data item abstraction of the
// AllScale model (Section 3.1): user-defined data structures managed
// by the runtime system. Every data item implementation provides
// three components:
//
//   - a façade type — the logical, whole-structure view offered to
//     application code (provided by the core API package on top of
//     this package);
//   - a fragment type — the runtime's view, maintaining a subset of
//     the structure's elements within one address space;
//   - a region type — the means to address subsets of elements
//     (Definition 2.2), closed under union, intersection and
//     set-difference.
//
// The package provides grid and binary-tree data items, mirroring the
// prototype implementations of Fig. 4 — an array or a scalar is a 1-d
// grid, a hash map a 1-d grid of buckets — plus the dynamic Region
// interface the data item manager uses to track fragments of
// heterogeneous item types uniformly.
package dataitem

import (
	"fmt"
)

// Region is the dynamic counterpart of region.Region used by the
// runtime: implementations wrap one concrete region type and combine
// only with regions of the same dynamic type. Regions travel in
// messages in the form of AppendRegionWire, which knows the two
// implementations of this package.
type Region interface {
	// Union returns the set union with other (same dynamic type).
	Union(other Region) Region
	// Intersect returns the set intersection with other.
	Intersect(other Region) Region
	// Difference returns the elements not in other.
	Difference(other Region) Region
	// IsEmpty reports whether no elements are covered.
	IsEmpty() bool
	// Equal reports extensional equality.
	Equal(other Region) bool
	// Size returns the number of covered elements.
	Size() int64
}

// Fragment is the runtime's view on a part of a data item: the
// elements of one region materialized in one address space
// (Section 3.1). Fragments support resizing as well as the import and
// export operations the data item manager uses for migration and
// replication (Section 3.2).
type Fragment interface {
	// Region returns the region currently covered by the fragment.
	Region() Region
	// Resize changes the covered region to r. Data of elements in the
	// intersection of the old and new regions is preserved; elements
	// only in the new region are zero-initialized.
	Resize(r Region) error
	// Extract serializes the data of the elements of r, which must be
	// a subset of the covered region.
	Extract(r Region) ([]byte, error)
	// Insert deserializes data produced by Extract into this
	// fragment, returning the region it covered. All inserted
	// elements must lie within the covered region.
	Insert(data []byte) (Region, error)
}

// Type describes one data item implementation: a factory for empty
// fragments plus the item's element universe. The runtime stores
// Types in its item registry so that any process can materialize
// fragments for items created elsewhere.
type Type interface {
	// Name is a unique registry key for the item type instance.
	Name() string
	// FullRegion returns elems(d), the region of all element
	// addresses of the item (Definition 2.1).
	FullRegion() Region
	// EmptyRegion returns the empty region of the item's region type.
	EmptyRegion() Region
	// NewFragment creates a fragment covering the empty region.
	NewFragment() Fragment
}

// Fits reports, as an error, whether r is a region of the items whose
// whole region (Type.FullRegion) is full: the same scheme and the same
// dimensionality or height. The algebra panics on a region that does not
// fit, because within a process combining one is a programming error; a region decoded from a peer's frame is checked
// with Fits before it meets the item's own.
func Fits(r, full Region) error {
	ok := false
	switch f := full.(type) {
	case GridRegion:
		g, grid := r.(GridRegion)
		ok = grid && (g.B.IsEmpty() || g.B.Dims() == f.B.Dims())
	case TreeItemRegion:
		t, tree := r.(TreeItemRegion)
		ok = tree && (t.T.Height() == f.T.Height() || t.T.Height() == 0 && t.T.IsEmpty())
	}
	if !ok {
		return fmt.Errorf("dataitem: region %v (%T) does not fit an item whose region is %v", r, r, full)
	}
	return nil
}

// operand returns other, the second operand of op on a, as a region of
// a's type; any other type panics, as combining the two is always a
// programming error.
func operand[R Region](op string, a R, other Region) R {
	o, ok := other.(R)
	if !ok {
		panic(fmt.Sprintf("dataitem: %s on mismatched region types %T and %T", op, a, other))
	}
	return o
}
