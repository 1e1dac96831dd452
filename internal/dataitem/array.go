package dataitem

import (
	"fmt"
	"sync/atomic"

	"allscale/internal/region"
	"allscale/internal/wire"
)

// IntervalRegion adapts region.IntervalSet — 1-d index ranges — to
// the dynamic Region interface. It is the region type of array data
// items and of scalar items (arrays of length 1).
type IntervalRegion struct {
	S region.IntervalSet
}

var _ Region = IntervalRegion{}

// IntervalFromTo returns the region covering [lo, hi).
func IntervalFromTo(lo, hi int64) IntervalRegion {
	return IntervalRegion{S: region.Span(lo, hi)}
}

// Union implements Region.
func (r IntervalRegion) Union(other Region) Region {
	o, ok := other.(IntervalRegion)
	if !ok {
		typeMismatch("union", r, other)
	}
	return IntervalRegion{S: r.S.Union(o.S)}
}

// Intersect implements Region.
func (r IntervalRegion) Intersect(other Region) Region {
	o, ok := other.(IntervalRegion)
	if !ok {
		typeMismatch("intersect", r, other)
	}
	return IntervalRegion{S: r.S.Intersect(o.S)}
}

// Difference implements Region.
func (r IntervalRegion) Difference(other Region) Region {
	o, ok := other.(IntervalRegion)
	if !ok {
		typeMismatch("difference", r, other)
	}
	return IntervalRegion{S: r.S.Difference(o.S)}
}

// IsEmpty implements Region.
func (r IntervalRegion) IsEmpty() bool { return r.S.IsEmpty() }

// Equal implements Region.
func (r IntervalRegion) Equal(other Region) bool {
	o, ok := other.(IntervalRegion)
	if !ok {
		return false
	}
	return r.S.Equal(o.S)
}

// Size implements Region.
func (r IntervalRegion) Size() int64 { return r.S.Size() }

func (r IntervalRegion) String() string { return r.S.String() }

// ArrayType is the data item type of 1-d arrays of T with
// IntervalRegion regions. A length-1 array models a scalar item.
type ArrayType[T any] struct {
	name string
	n    int64
}

// NewArrayType describes an array data item with n elements.
func NewArrayType[T any](name string, n int64) *ArrayType[T] {
	if n <= 0 {
		panic("dataitem: array needs at least one element")
	}
	mustHaveElemForm[T](name)
	return &ArrayType[T]{name: name, n: n}
}

// NewScalarType describes a single-value data item.
func NewScalarType[T any](name string) *ArrayType[T] {
	return NewArrayType[T](name, 1)
}

// Name implements Type.
func (t *ArrayType[T]) Name() string { return t.name }

// Len returns the element count.
func (t *ArrayType[T]) Len() int64 { return t.n }

// FullRegion implements Type.
func (t *ArrayType[T]) FullRegion() Region { return IntervalFromTo(0, t.n) }

// EmptyRegion implements Type.
func (t *ArrayType[T]) EmptyRegion() Region { return IntervalRegion{} }

// NewFragment implements Type.
func (t *ArrayType[T]) NewFragment() Fragment {
	f := &ArrayFragment[T]{}
	f.state.Store(&arrayState[T]{})
	return f
}

// ArrayFragment stores the elements of one interval region. Like
// TreeFragment it is one immutable (cover, table) state replaced as a
// whole by Resize, the table mapping to element slots a Resize carries
// over: tasks of one rank set disjoint indices while the manager
// resizes, and neither touches a map that is being written.
type ArrayFragment[T any] struct {
	state atomic.Pointer[arrayState[T]]
}

type arrayState[T any] struct {
	cover region.IntervalSet
	vals  map[int64]*T
}

var _ Fragment = (*ArrayFragment[int])(nil)

// Region implements Fragment.
func (f *ArrayFragment[T]) Region() Region { return IntervalRegion{S: f.state.Load().cover} }

// slot returns the slot of index i; it panics outside the fragment (a
// missing data requirement).
func (f *ArrayFragment[T]) slot(op string, i int64) *T {
	st := f.state.Load()
	if !st.cover.Contains(i) {
		panic(fmt.Sprintf("dataitem: %s [%d] outside array fragment %v (missing data requirement?)", op, i, st.cover))
	}
	return st.vals[i]
}

// At returns the element at index i; it panics outside the fragment.
func (f *ArrayFragment[T]) At(i int64) T { return *f.slot("access to", i) }

// Set stores v at index i; same containment contract as At.
func (f *ArrayFragment[T]) Set(i int64, v T) { *f.slot("write to", i) = v }

// Resize implements Fragment.
func (f *ArrayFragment[T]) Resize(r Region) error {
	ir, ok := r.(IntervalRegion)
	if !ok {
		return fmt.Errorf("dataitem: array fragment resized with %T", r)
	}
	old := f.state.Load()
	next := make(map[int64]*T)
	for _, iv := range ir.S.Intervals() {
		for i := iv.Lo; i < iv.Hi; i++ {
			if slot, ok := old.vals[i]; ok {
				next[i] = slot
			} else {
				next[i] = new(T)
			}
		}
	}
	f.state.Store(&arrayState[T]{cover: ir.S, vals: next})
	return nil
}

// Extract implements Fragment. The payload is the format tag, the
// indices as one numeric block and the values in the element codec's
// form.
func (f *ArrayFragment[T]) Extract(r Region) ([]byte, error) {
	ir, ok := r.(IntervalRegion)
	if !ok {
		return nil, fmt.Errorf("dataitem: array extract with %T", r)
	}
	st := f.state.Load()
	if !ir.S.Difference(st.cover).IsEmpty() {
		return nil, fmt.Errorf("dataitem: extract region %v not covered by fragment %v", ir.S, st.cover)
	}
	n := ir.S.Size()
	idx := make([]int64, 0, n)
	vals := make([]T, 0, n)
	for _, iv := range ir.S.Intervals() {
		for i := iv.Lo; i < iv.Hi; i++ {
			idx = append(idx, i)
			vals = append(vals, *st.vals[i])
		}
	}
	buf := make([]byte, 1, 64)
	buf[0] = wire.FormatBinary
	buf = wire.AppendNumeric(buf, idx)
	return appendElems(buf, vals)
}

// Insert implements Fragment. Nothing is stored unless the whole
// payload decodes and lies inside the fragment.
func (f *ArrayFragment[T]) Insert(data []byte) (Region, error) {
	d, err := payloadDecoder(data)
	if err != nil {
		return nil, err
	}
	idx := wire.DecodeNumeric[int64](d)
	vals := decodeElems[T](d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(idx) != len(vals) {
		return nil, fmt.Errorf("dataitem: array insert carries %d indices but %d values", len(idx), len(vals))
	}
	st := f.state.Load()
	ivs := make([]region.Interval, len(idx))
	for i, at := range idx {
		if !st.cover.Contains(at) {
			return nil, fmt.Errorf("dataitem: insert index %d outside fragment region %v", at, st.cover)
		}
		ivs[i] = region.Interval{Lo: at, Hi: at + 1}
	}
	for i, at := range idx {
		*st.vals[at] = vals[i]
	}
	return IntervalRegion{S: region.NewIntervalSet(ivs...)}, nil
}
