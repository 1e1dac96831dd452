package dataitem

import (
	"fmt"
	"sync/atomic"

	"allscale/internal/region"
	"allscale/internal/wire"
)

// TreeItemRegion adapts region.TreeRegion — the flexible
// included/excluded-subtree scheme of Fig. 4b — to the dynamic Region
// interface.
type TreeItemRegion struct {
	T region.TreeRegion
}

var _ Region = TreeItemRegion{}

// emptyTrees holds the empty tree region of every height a NodeID can
// address, each boxed once.
var emptyTrees = func() (e [65]Region) {
	for h := range e {
		e[h] = TreeItemRegion{T: region.EmptyTreeRegion(h)}
	}
	return e
}()

// treeResult boxes an answer of the algebra whose second operand was
// other (holding o): other, when the algebra returned it as it was, and
// an empty answer are handed back without boxing anew.
func treeResult(t region.TreeRegion, other Region, o region.TreeRegion) Region {
	switch {
	case t.Identical(o):
		return other
	case t.IsEmpty() && t.Height() >= 0 && t.Height() < len(emptyTrees):
		return emptyTrees[t.Height()]
	}
	return TreeItemRegion{T: t}
}

// Union implements Region.
func (t TreeItemRegion) Union(other Region) Region {
	o := operand("union", t, other).T
	return treeResult(t.T.Union(o), other, o)
}

// Intersect implements Region.
func (t TreeItemRegion) Intersect(other Region) Region {
	o := operand("intersect", t, other).T
	return treeResult(t.T.Intersect(o), other, o)
}

// Difference implements Region.
func (t TreeItemRegion) Difference(other Region) Region {
	o := operand("difference", t, other).T
	return treeResult(t.T.Difference(o), other, o)
}

// IsEmpty implements Region.
func (t TreeItemRegion) IsEmpty() bool { return t.T.IsEmpty() }

// Equal implements Region.
func (t TreeItemRegion) Equal(other Region) bool {
	o, ok := other.(TreeItemRegion)
	if !ok {
		return false
	}
	return t.T.Equal(o.T)
}

// Size implements Region.
func (t TreeItemRegion) Size() int64 { return t.T.Size() }

func (t TreeItemRegion) String() string { return t.T.String() }

// TreeType is the data item type of complete binary trees of height
// `height` with node payloads of type T (Fig. 4b/4c).
type TreeType[T any] struct {
	name   string
	height int
}

// NewTreeType describes a binary tree data item with the given number
// of levels.
func NewTreeType[T any](name string, height int) *TreeType[T] {
	if height <= 0 {
		panic("dataitem: tree needs at least one level")
	}
	mustHaveElemForm[T](name)
	return &TreeType[T]{name: name, height: height}
}

// Name implements Type.
func (t *TreeType[T]) Name() string { return t.name }

// Height returns the number of tree levels.
func (t *TreeType[T]) Height() int { return t.height }

// FullRegion implements Type.
func (t *TreeType[T]) FullRegion() Region {
	return TreeItemRegion{T: region.FullTreeRegion(t.height)}
}

// EmptyRegion implements Type.
func (t *TreeType[T]) EmptyRegion() Region {
	return TreeItemRegion{T: region.EmptyTreeRegion(t.height)}
}

// NewFragment implements Type.
func (t *TreeType[T]) NewFragment() Fragment {
	f := &TreeFragment[T]{height: t.height}
	f.state.Store(&treeState[T]{cover: region.EmptyTreeRegion(t.height)})
	return f
}

// TreeFragment stores the payloads of the tree nodes of one region.
//
// Tasks of one rank run concurrently on disjoint nodes while the
// manager resizes the fragment for the next one, so the region and the
// node table are one immutable value, replaced as a whole by Resize,
// and the table maps to payload slots that a Resize carries over: an
// access never touches a map that is being written, and a payload
// stored through the previous table is not lost.
type TreeFragment[T any] struct {
	height int
	state  atomic.Pointer[treeState[T]]
}

type treeState[T any] struct {
	cover region.TreeRegion
	nodes map[region.NodeID]*T
}

var _ Fragment = (*TreeFragment[int])(nil)

// Region implements Fragment.
func (f *TreeFragment[T]) Region() Region { return TreeItemRegion{T: f.state.Load().cover} }

// Covers reports whether node n is stored in the fragment.
func (f *TreeFragment[T]) Covers(n region.NodeID) bool { return f.state.Load().cover.Contains(n) }

// slot returns the payload slot of node n; it panics when n is outside
// the fragment (a missing data requirement).
func (f *TreeFragment[T]) slot(op string, n region.NodeID) *T {
	st := f.state.Load()
	if !st.cover.Contains(n) {
		panic(fmt.Sprintf("dataitem: %s %v outside tree fragment %v (missing data requirement?)", op, n, st.cover))
	}
	return st.nodes[n]
}

// At returns the payload of node n; it panics when n is outside the
// fragment (a missing data requirement).
func (f *TreeFragment[T]) At(n region.NodeID) T { return *f.slot("access to", n) }

// Ref returns the payload slot of node n itself — the tree's Row: no
// copy of the payload is made, and a Resize that keeps n carries the
// slot over, so the pointer stays the node's storage. It is valid for
// as long as the task holds the requirement that covers n and grants
// what that requirement grants: a read requirement does not license a
// write through it. Same containment contract as At.
func (f *TreeFragment[T]) Ref(n region.NodeID) *T { return f.slot("access to", n) }

// Set stores v at node n; same containment contract as At.
func (f *TreeFragment[T]) Set(n region.NodeID, v T) { *f.slot("write to", n) = v }

// Resize implements Fragment.
func (f *TreeFragment[T]) Resize(r Region) error {
	tr, ok := r.(TreeItemRegion)
	if !ok {
		return fmt.Errorf("dataitem: tree fragment resized with %T", r)
	}
	target := tr.T
	if target.Height() != f.height && !target.IsEmpty() {
		return fmt.Errorf("dataitem: resize of height-%d tree with height-%d region", f.height, target.Height())
	}
	old := f.state.Load()
	next := make(map[region.NodeID]*T)
	target.ForEachNode(func(n region.NodeID) {
		if slot, ok := old.nodes[n]; ok {
			next[n] = slot
		} else {
			next[n] = new(T)
		}
	})
	if target.IsEmpty() {
		target = region.EmptyTreeRegion(f.height)
	}
	f.state.Store(&treeState[T]{cover: target, nodes: next})
	return nil
}

// Extract implements Fragment. The payload is the format tag, the
// node IDs as one numeric block and the payloads in the element
// codec's form.
func (f *TreeFragment[T]) Extract(r Region) ([]byte, error) {
	tr, ok := r.(TreeItemRegion)
	if !ok {
		return nil, fmt.Errorf("dataitem: tree extract with %T", r)
	}
	st := f.state.Load()
	if !tr.T.Difference(st.cover).IsEmpty() {
		return nil, fmt.Errorf("dataitem: extract region %v not covered by fragment %v", tr.T, st.cover)
	}
	n := tr.T.Size()
	nodes := make([]uint64, 0, n)
	vals := make([]T, 0, n)
	tr.T.ForEachNode(func(n region.NodeID) {
		nodes = append(nodes, uint64(n))
		vals = append(vals, *st.nodes[n])
	})
	buf := make([]byte, 1, 64)
	buf[0] = wire.FormatBinary
	buf = wire.AppendNumeric(buf, nodes)
	return appendElems(buf, vals)
}

// Insert implements Fragment. Nothing is stored unless the whole
// payload decodes and lies inside the fragment.
func (f *TreeFragment[T]) Insert(data []byte) (Region, error) {
	d, err := payloadDecoder(data)
	if err != nil {
		return nil, err
	}
	nodes := wire.DecodeNumeric[uint64](d)
	vals := decodeElems[T](d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(nodes) != len(vals) {
		return nil, fmt.Errorf("dataitem: tree insert carries %d nodes but %d values", len(nodes), len(vals))
	}
	st := f.state.Load()
	covered := region.EmptyTreeRegion(f.height)
	for _, raw := range nodes {
		n := region.NodeID(raw)
		if !st.cover.Contains(n) {
			return nil, fmt.Errorf("dataitem: insert node %v outside fragment region %v", n, st.cover)
		}
		covered = covered.Union(region.SingleNodeRegion(f.height, n))
	}
	for i, raw := range nodes {
		*st.nodes[region.NodeID(raw)] = vals[i]
	}
	return TreeItemRegion{T: covered}, nil
}
