package dataitem

import (
	"fmt"
	"sync/atomic"

	"allscale/internal/region"
	"allscale/internal/wire"
)

// GridType is the data item type of N-dimensional grids of elements
// of type T (Fig. 4a): fragments hold sets of dense, row-major boxes;
// regions are sets of axis-aligned bounding boxes.
type GridType[T any] struct {
	name string
	size region.Point // extent per dimension; elems = [0, size)
}

// NewGridType describes a grid data item with the given extent.
func NewGridType[T any](name string, size region.Point) *GridType[T] {
	if len(size) == 0 {
		panic("dataitem: grid needs at least one dimension")
	}
	mustHaveElemForm[T](name)
	return &GridType[T]{name: name, size: size.Clone()}
}

// Name implements Type.
func (t *GridType[T]) Name() string { return t.name }

// Size returns the grid extent.
func (t *GridType[T]) Size() region.Point { return t.size.Clone() }

// FullRegion implements Type.
func (t *GridType[T]) FullRegion() Region {
	zero := make(region.Point, len(t.size))
	return GridRegionFromTo(zero, t.size)
}

// EmptyRegion implements Type.
func (t *GridType[T]) EmptyRegion() Region { return GridRegion{} }

// NewFragment implements Type.
func (t *GridType[T]) NewFragment() Fragment {
	f := &GridFragment[T]{dims: len(t.size)}
	f.state.Store(&gridState[T]{region: GridRegion{}})
	return f
}

// gridBlock is a dense box of grid data: the sub-box `box` of an
// allocation that stores `alloc` row-major in data. Blocks made from
// one allocation share data; none of them ever gets another.
type gridBlock[T any] struct {
	box   region.Box
	alloc region.Box
	data  []T
}

// gridState is one published (cover, blocks) pair; it is never modified
// once stored. region is cover as the Region that Resize was given.
type gridState[T any] struct {
	cover  region.BoxSet
	region Region
	blocks []gridBlock[T]
}

// GridFragment is the runtime-side storage of one grid region within
// one address space: a set of disjoint dense boxes.
//
// Tasks of one rank run concurrently on disjoint elements while the
// manager resizes the fragment for the next one, so the region and the
// block table are one immutable value, replaced as a whole by Resize,
// and the blocks are views of allocations a Resize neither moves nor
// copies: an access never sees a half-built table, a write through the
// previous table is not lost, and a slice handed out by Row stays the
// element's storage for as long as the element stays covered. Resizes
// themselves are serialized by the caller (the manager's lock).
type GridFragment[T any] struct {
	dims  int
	state atomic.Pointer[gridState[T]]
}

var _ Fragment = (*GridFragment[int])(nil)

// Region implements Fragment.
func (f *GridFragment[T]) Region() Region { return f.state.Load().region }

// Covers reports whether point p is stored in the fragment.
func (f *GridFragment[T]) Covers(p region.Point) bool { return f.state.Load().cover.Contains(p) }

// blockOf finds the block containing p.
func (f *GridFragment[T]) blockOf(p region.Point) *gridBlock[T] {
	blocks := f.state.Load().blocks
	for i := range blocks {
		if blocks[i].box.Contains(p) {
			return &blocks[i]
		}
	}
	return nil
}

// At returns the element at p; it panics when p is outside the
// fragment (the runtime guarantees task requirements are satisfied
// before a task runs, so this indicates a missing data requirement).
func (f *GridFragment[T]) At(p region.Point) T { return *f.elem("access to", p) }

// Set stores v at p; same containment contract as At.
func (f *GridFragment[T]) Set(p region.Point, v T) { *f.elem("write to", p) = v }

// Ptr returns a pointer to the element at p for in-place updates.
func (f *GridFragment[T]) Ptr(p region.Point) *T { return f.elem("access to", p) }

// Row returns the n elements starting at p along the innermost
// dimension as a slice of the fragment's storage: a write through it is
// a Set. It reports false when those elements do not lie in one block
// (p is not covered, or the run crosses a block edge); the caller then
// goes element by element.
func (f *GridFragment[T]) Row(p region.Point, n int) ([]T, bool) {
	b := f.blockOf(p)
	last := len(p) - 1
	if b == nil || n < 0 || p[last]+n > b.box.Max[last] {
		return nil, false
	}
	i := boxIndex(b.alloc, p)
	return b.data[i : i+n : i+n], true
}

// elem returns the storage of the element at p for op; it panics as At
// does.
func (f *GridFragment[T]) elem(op string, p region.Point) *T {
	b := f.blockOf(p)
	if b == nil {
		f.outside(op, p)
	}
	return &b.data[boxIndex(b.alloc, p)]
}

// outside panics for an access beyond the fragment. It formats a copy
// of p: handing p itself to fmt would make it escape, and then every
// caller's region.Point{x, y} literal is a heap allocation — five per
// stencil cell — paid on the path that never panics.
func (f *GridFragment[T]) outside(op string, p region.Point) {
	panic(fmt.Sprintf("dataitem: %s %v outside fragment region %v (missing data requirement?)", op, p.Clone(), f.state.Load().cover))
}

// Resize implements Fragment: the fragment afterwards covers exactly
// r. What stays covered stays where it is — every block is cut down to
// its part inside r, as views of the same allocation — and only what r
// adds is allocated. No element is copied, so a write racing the resize
// lands in the storage the next state reads. The price: an allocation
// lives for as long as any view of it does.
func (f *GridFragment[T]) Resize(r Region) error {
	gr, ok := r.(GridRegion)
	if !ok {
		return fmt.Errorf("dataitem: grid fragment resized with %T", r)
	}
	target := gr.B
	if !target.IsEmpty() && target.Dims() != f.dims && f.dims != 0 {
		return fmt.Errorf("dataitem: resize of %d-d grid with %d-d region", f.dims, target.Dims())
	}
	old := f.state.Load()
	var blocks []gridBlock[T]
	kept := target.Boxes()
	for _, b := range old.blocks {
		for _, tb := range kept {
			if box := b.box.Intersect(tb); !box.IsEmpty() {
				blocks = append(blocks, gridBlock[T]{box: box, alloc: b.alloc, data: b.data})
			}
		}
	}
	for _, box := range target.Difference(old.cover).Boxes() {
		blocks = append(blocks, gridBlock[T]{box: box, alloc: box, data: make([]T, box.Size())})
	}
	f.state.Store(&gridState[T]{cover: target, region: r, blocks: blocks})
	return nil
}

// Retained returns the number of elements in the allocations the
// fragment's blocks are views of — at least the size of its region, and
// more by what earlier resizes cut away from blocks that remain.
func (f *GridFragment[T]) Retained() int64 {
	seen := make(map[*T]bool)
	var n int64
	for _, b := range f.state.Load().blocks {
		if len(b.data) > 0 && !seen[&b.data[0]] {
			seen[&b.data[0]] = true
			n += int64(len(b.data))
		}
	}
	return n
}

// boxIndex returns the row-major offset of p within box b.
func boxIndex(b region.Box, p region.Point) int {
	idx := 0
	for d := 0; d < len(p); d++ {
		idx = idx*(b.Max[d]-b.Min[d]) + (p[d] - b.Min[d])
	}
	return idx
}

// copyRuns copies the elements of inter from src (row-major within
// sbox) to dst (row-major within dbox), one contiguous innermost-
// dimension run per iteration. Replacing the per-point closure walk
// with memmove-sized runs is what makes fragment Extract/Insert a
// bulk, region-wise transfer instead of an element-wise one.
func copyRuns[T any](dst []T, dbox region.Box, src []T, sbox region.Box, inter region.Box) {
	if inter.IsEmpty() {
		return
	}
	dims := len(inter.Min)
	last := dims - 1
	runLen := inter.Max[last] - inter.Min[last]
	p := inter.Min.Clone()
	for {
		di := boxIndex(dbox, p)
		si := boxIndex(sbox, p)
		copy(dst[di:di+runLen], src[si:si+runLen])
		// Odometer over the outer dimensions; a 1-d grid has none and
		// is fully covered by the single run above.
		d := last - 1
		for d >= 0 {
			p[d]++
			if p[d] < inter.Max[d] {
				break
			}
			p[d] = inter.Min[d]
			d--
		}
		if d < 0 {
			return
		}
	}
}

// extractBox gathers the elements of box (which must be covered by
// the state) into dst, row-major within box.
func (st *gridState[T]) extractBox(box region.Box, dst []T) {
	for bi := range st.blocks {
		blk := &st.blocks[bi]
		copyRuns(dst, box, blk.data, blk.alloc, box.Intersect(blk.box))
	}
}

// insertBox scatters vals (row-major within box) into the state's
// blocks; box must be covered by the state.
func (st *gridState[T]) insertBox(box region.Box, vals []T) {
	for bi := range st.blocks {
		blk := &st.blocks[bi]
		copyRuns(blk.data, blk.alloc, vals, box, box.Intersect(blk.box))
	}
}

// Extract implements Fragment. Elements are gathered box by box with
// contiguous run copies; the payload is the format tag, the box count
// and, per box, its corners followed by its elements in the element
// codec's form.
func (f *GridFragment[T]) Extract(r Region) ([]byte, error) {
	gr, ok := r.(GridRegion)
	if !ok {
		return nil, fmt.Errorf("dataitem: grid extract with %T", r)
	}
	st := f.state.Load()
	if !gr.B.Difference(st.cover).IsEmpty() {
		return nil, fmt.Errorf("dataitem: extract region %v not covered by fragment %v", gr.B, st.cover)
	}
	boxes := gr.B.Boxes()
	buf := make([]byte, 1, 64)
	buf[0] = wire.FormatBinary
	buf = wire.AppendUvarint(buf, uint64(len(boxes)))
	for _, box := range boxes {
		buf = appendBox(buf, box)
		vals := make([]T, box.Size())
		st.extractBox(box, vals)
		var err error
		if buf, err = appendElems(buf, vals); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Insert implements Fragment. Nothing is stored unless the whole
// payload decodes and lies inside the fragment.
func (f *GridFragment[T]) Insert(data []byte) (Region, error) { return f.insert(data, nil) }

// insert is Insert, refusing the payload too when check, if set, refuses
// one of its boxes and the values it carries.
func (f *GridFragment[T]) insert(data []byte, check func(region.Box, []T) error) (Region, error) {
	d, err := payloadDecoder(data)
	if err != nil {
		return nil, err
	}
	// A box takes at least its dimension count and two corners.
	n := d.Count(3)
	boxes := make([]region.Box, 0, n)
	vals := make([][]T, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		boxes = append(boxes, decodeBox(d))
		vals = append(vals, decodeElems[T](d))
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	st := f.state.Load()
	for bi, box := range boxes {
		if len(box.Min) != f.dims {
			return nil, fmt.Errorf("dataitem: insert of %d-d box %v into %d-d grid", len(box.Min), box, f.dims)
		}
		if !region.NewBoxSet(box).Difference(st.cover).IsEmpty() {
			return nil, fmt.Errorf("dataitem: insert box %v outside fragment region %v", box, st.cover)
		}
		if int64(len(vals[bi])) != box.Size() {
			return nil, fmt.Errorf("dataitem: insert box %v carries %d values, want %d", box, len(vals[bi]), box.Size())
		}
		if check != nil {
			if err := check(box, vals[bi]); err != nil {
				return nil, err
			}
		}
	}
	for bi, box := range boxes {
		st.insertBox(box, vals[bi])
	}
	// One BoxSet from all boxes at once: a per-box Union would rebuild
	// the set n times (quadratic in the number of boxes).
	return GridRegion{B: region.NewBoxSet(boxes...)}, nil
}
