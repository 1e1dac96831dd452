package dataitem

import (
	"fmt"

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
	return &GridFragment[T]{dims: len(t.size)}
}

// gridBlock is one dense, row-major box of grid data.
type gridBlock[T any] struct {
	box  region.Box
	data []T
}

// index returns the row-major offset of p within the block.
func (b *gridBlock[T]) index(p region.Point) int {
	idx := 0
	for d := 0; d < len(p); d++ {
		idx = idx*(b.box.Max[d]-b.box.Min[d]) + (p[d] - b.box.Min[d])
	}
	return idx
}

// GridFragment is the runtime-side storage of one grid region within
// one address space: a set of disjoint dense boxes.
type GridFragment[T any] struct {
	dims   int
	blocks []gridBlock[T]
	cover  region.BoxSet
}

var _ Fragment = (*GridFragment[int])(nil)

// Region implements Fragment.
func (f *GridFragment[T]) Region() Region { return GridRegion{B: f.cover} }

// Covers reports whether point p is stored in the fragment.
func (f *GridFragment[T]) Covers(p region.Point) bool { return f.cover.Contains(p) }

// blockOf finds the block containing p.
func (f *GridFragment[T]) blockOf(p region.Point) *gridBlock[T] {
	for i := range f.blocks {
		if f.blocks[i].box.Contains(p) {
			return &f.blocks[i]
		}
	}
	return nil
}

// At returns the element at p; it panics when p is outside the
// fragment (the runtime guarantees task requirements are satisfied
// before a task runs, so this indicates a missing data requirement).
func (f *GridFragment[T]) At(p region.Point) T {
	b := f.blockOf(p)
	if b == nil {
		f.outside("access to", p)
	}
	return b.data[b.index(p)]
}

// Set stores v at p; same containment contract as At.
func (f *GridFragment[T]) Set(p region.Point, v T) {
	b := f.blockOf(p)
	if b == nil {
		f.outside("write to", p)
	}
	b.data[b.index(p)] = v
}

// Ptr returns a pointer to the element at p for in-place updates.
func (f *GridFragment[T]) Ptr(p region.Point) *T {
	b := f.blockOf(p)
	if b == nil {
		f.outside("access to", p)
	}
	return &b.data[b.index(p)]
}

// outside panics for an access beyond the fragment. It formats a copy
// of p: handing p itself to fmt would make it escape, and then every
// caller's region.Point{x, y} literal is a heap allocation — five per
// stencil cell — paid on the path that never panics.
func (f *GridFragment[T]) outside(op string, p region.Point) {
	panic(fmt.Sprintf("dataitem: %s %v outside fragment region %v (missing data requirement?)", op, p.Clone(), f.cover))
}

// Resize implements Fragment: the fragment afterwards covers exactly
// r; data in the intersection with the previous region is preserved.
// A block whose box is also a box of r is kept as it is — same backing
// array — so growing or shrinking by a halo row neither reallocates nor
// moves the rows that stay, and an element write racing the resize
// through such a block is not lost.
func (f *GridFragment[T]) Resize(r Region) error {
	gr, ok := r.(GridRegion)
	if !ok {
		return fmt.Errorf("dataitem: grid fragment resized with %T", r)
	}
	target := gr.B
	if !target.IsEmpty() && target.Dims() != f.dims && f.dims != 0 {
		return fmt.Errorf("dataitem: resize of %d-d grid with %d-d region", f.dims, target.Dims())
	}
	var blocks []gridBlock[T]
	for _, box := range target.Boxes() {
		if old := f.blockWithBox(box); old != nil {
			blocks = append(blocks, *old)
			continue
		}
		nb := gridBlock[T]{box: box, data: make([]T, box.Size())}
		// Copy the overlap with every old block, one contiguous
		// innermost-dimension run at a time.
		for oi := range f.blocks {
			old := &f.blocks[oi]
			copyRuns(nb.data, nb.box, old.data, old.box, box.Intersect(old.box))
		}
		blocks = append(blocks, nb)
	}
	f.blocks = blocks
	f.cover = target
	return nil
}

// blockWithBox finds the block storing exactly box.
func (f *GridFragment[T]) blockWithBox(box region.Box) *gridBlock[T] {
	for i := range f.blocks {
		if b := &f.blocks[i]; b.box.Min.Equal(box.Min) && b.box.Max.Equal(box.Max) {
			return b
		}
	}
	return nil
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
// the fragment) into dst, row-major within box.
func (f *GridFragment[T]) extractBox(box region.Box, dst []T) {
	for bi := range f.blocks {
		blk := &f.blocks[bi]
		copyRuns(dst, box, blk.data, blk.box, box.Intersect(blk.box))
	}
}

// insertBox scatters vals (row-major within box) into the fragment's
// blocks; box must be covered by the fragment.
func (f *GridFragment[T]) insertBox(box region.Box, vals []T) {
	for bi := range f.blocks {
		blk := &f.blocks[bi]
		copyRuns(blk.data, blk.box, vals, box, box.Intersect(blk.box))
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
	if !gr.B.Difference(f.cover).IsEmpty() {
		return nil, fmt.Errorf("dataitem: extract region %v not covered by fragment %v", gr.B, f.cover)
	}
	boxes := gr.B.Boxes()
	buf := make([]byte, 1, 64)
	buf[0] = wire.FormatBinary
	buf = wire.AppendUvarint(buf, uint64(len(boxes)))
	for _, box := range boxes {
		buf = appendBox(buf, box)
		vals := make([]T, box.Size())
		f.extractBox(box, vals)
		var err error
		if buf, err = appendElems(buf, vals); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Insert implements Fragment. Nothing is stored unless the whole
// payload decodes and lies inside the fragment.
func (f *GridFragment[T]) Insert(data []byte) (Region, error) {
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
	for bi, box := range boxes {
		if len(box.Min) != f.dims {
			return nil, fmt.Errorf("dataitem: insert of %d-d box %v into %d-d grid", len(box.Min), box, f.dims)
		}
		if !region.NewBoxSet(box).Difference(f.cover).IsEmpty() {
			return nil, fmt.Errorf("dataitem: insert box %v outside fragment region %v", box, f.cover)
		}
		if int64(len(vals[bi])) != box.Size() {
			return nil, fmt.Errorf("dataitem: insert box %v carries %d values, want %d", box, len(vals[bi]), box.Size())
		}
	}
	for bi, box := range boxes {
		f.insertBox(box, vals[bi])
	}
	// One BoxSet from all boxes at once: a per-box Union would rebuild
	// the set n times (quadratic in the number of boxes).
	return GridRegion{B: region.NewBoxSet(boxes...)}, nil
}

// DenseBlock exposes one stored box and its row-major backing slice
// for high-performance kernels (e.g. stencil inner loops).
type DenseBlock[T any] struct {
	Box  region.Box
	Data []T
}

// Blocks returns the fragment's dense blocks. The slices alias the
// fragment's storage: writes are visible to At/Extract.
func (f *GridFragment[T]) Blocks() []DenseBlock[T] {
	out := make([]DenseBlock[T], len(f.blocks))
	for i := range f.blocks {
		out[i] = DenseBlock[T]{Box: f.blocks[i].box, Data: f.blocks[i].data}
	}
	return out
}
