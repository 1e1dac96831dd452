package dataitem

import (
	"fmt"
	"hash/fnv"

	"allscale/internal/region"
	"allscale/internal/wire"
)

// MapType is the data item type of hash maps from K to V,
// demonstrating the interface's generality beyond arrays and trees
// (Section 3.1 lists sets and maps among the implementable
// structures). The key space is partitioned into a fixed number of
// hash buckets; regions address sets of buckets (IntervalRegion over
// bucket indices), which keeps them efficient and closed under the
// set operations while still allowing fine-grained distribution.
type MapType[K comparable, V any] struct {
	name    string
	buckets int64
}

// NewMapType describes a map item with the given bucket count.
func NewMapType[K comparable, V any](name string, buckets int) *MapType[K, V] {
	if buckets <= 0 {
		panic("dataitem: map needs at least one bucket")
	}
	mustHaveElemForm[K](name)
	mustHaveElemForm[V](name)
	return &MapType[K, V]{name: name, buckets: int64(buckets)}
}

// Name implements Type.
func (t *MapType[K, V]) Name() string { return t.name }

// FullRegion implements Type.
func (t *MapType[K, V]) FullRegion() Region { return IntervalFromTo(0, t.buckets) }

// EmptyRegion implements Type.
func (t *MapType[K, V]) EmptyRegion() Region { return IntervalRegion{} }

// NewFragment implements Type.
func (t *MapType[K, V]) NewFragment() Fragment {
	return &MapFragment[K, V]{buckets: t.buckets, vals: make(map[K]V)}
}

// BucketOf returns the bucket index of key k (deterministic across
// processes: FNV over the wire form of the key).
func (t *MapType[K, V]) BucketOf(k K) int64 { return bucketOf(k, t.buckets) }

// BucketRegion returns the region containing only the bucket of k.
func (t *MapType[K, V]) BucketRegion(k K) IntervalRegion {
	b := t.BucketOf(k)
	return IntervalFromTo(b, b+1)
}

func bucketOf[K comparable](k K, buckets int64) int64 {
	var scratch [64]byte
	buf, err := appendElems(scratch[:0], []K{k})
	if err != nil {
		// NewMapType checked that K has a form; what is left is a
		// key whose own AppendWire refuses it.
		panic(fmt.Sprintf("dataitem: unhashable map key %v: %v", k, err))
	}
	h := fnv.New64a()
	h.Write(buf)
	return int64(h.Sum64() % uint64(buckets))
}

// MapFragment stores the key/value pairs of the covered buckets.
type MapFragment[K comparable, V any] struct {
	buckets int64
	cover   IntervalRegion
	vals    map[K]V
}

var _ Fragment = (*MapFragment[string, int])(nil)

// Region implements Fragment.
func (f *MapFragment[K, V]) Region() Region { return f.cover }

// Covers reports whether the bucket of key k is held locally.
func (f *MapFragment[K, V]) Covers(k K) bool {
	return f.cover.S.Contains(bucketOf(k, f.buckets))
}

// Get returns the value of k; it panics when k's bucket is outside
// the fragment (a missing data requirement).
func (f *MapFragment[K, V]) Get(k K) (V, bool) {
	if !f.Covers(k) {
		panic(fmt.Sprintf("dataitem: map access to key %v outside fragment buckets %v (missing data requirement?)", k, f.cover))
	}
	v, ok := f.vals[k]
	return v, ok
}

// Put stores v under k; same containment contract as Get.
func (f *MapFragment[K, V]) Put(k K, v V) {
	if !f.Covers(k) {
		panic(fmt.Sprintf("dataitem: map write to key %v outside fragment buckets %v (missing data requirement?)", k, f.cover))
	}
	f.vals[k] = v
}

// Delete removes k; same containment contract as Get.
func (f *MapFragment[K, V]) Delete(k K) {
	if !f.Covers(k) {
		panic(fmt.Sprintf("dataitem: map delete of key %v outside fragment buckets %v (missing data requirement?)", k, f.cover))
	}
	delete(f.vals, k)
}

// Len returns the number of locally stored pairs.
func (f *MapFragment[K, V]) Len() int { return len(f.vals) }

// ForEach visits every locally stored pair in unspecified order.
func (f *MapFragment[K, V]) ForEach(fn func(K, V)) {
	for k, v := range f.vals {
		fn(k, v)
	}
}

// Resize implements Fragment: pairs in dropped buckets are discarded.
func (f *MapFragment[K, V]) Resize(r Region) error {
	ir, ok := r.(IntervalRegion)
	if !ok {
		return fmt.Errorf("dataitem: map fragment resized with %T", r)
	}
	next := make(map[K]V)
	for k, v := range f.vals {
		if ir.S.Contains(bucketOf(k, f.buckets)) {
			next[k] = v
		}
	}
	f.vals = next
	f.cover = ir
	return nil
}

// Extract implements Fragment. The payload is the format tag, the
// keys and the values, each in the element codec's form. Empty buckets
// still travel (as the region) so the receiver learns their coverage.
func (f *MapFragment[K, V]) Extract(r Region) ([]byte, error) {
	ir, ok := r.(IntervalRegion)
	if !ok {
		return nil, fmt.Errorf("dataitem: map extract with %T", r)
	}
	if !ir.S.Difference(f.cover.S).IsEmpty() {
		return nil, fmt.Errorf("dataitem: extract buckets %v not covered by fragment %v", ir, f.cover)
	}
	var keys []K
	var vals []V
	for k, v := range f.vals {
		if ir.S.Contains(bucketOf(k, f.buckets)) {
			keys = append(keys, k)
			vals = append(vals, v)
		}
	}
	buf := make([]byte, 1, 64)
	buf[0] = wire.FormatBinary
	buf, err := appendElems(buf, keys)
	if err != nil {
		return nil, err
	}
	return appendElems(buf, vals)
}

// Insert implements Fragment. Bucket contents travel as whole buckets,
// so the buckets of the carried keys are replaced, not merged into: a
// pair the sender has deleted since an earlier transfer goes here too
// (the DIM refreshes replicas in place). A bucket that travelled empty
// is not part of the returned region and keeps what it had. Nothing is
// stored unless the whole payload decodes and lies inside the
// fragment.
func (f *MapFragment[K, V]) Insert(data []byte) (Region, error) {
	d, err := payloadDecoder(data)
	if err != nil {
		return nil, err
	}
	keys := decodeElems[K](d)
	vals := decodeElems[V](d)
	if err := d.Err(); err != nil {
		return nil, err
	}
	if len(keys) != len(vals) {
		return nil, fmt.Errorf("dataitem: map insert carries %d keys but %d values", len(keys), len(vals))
	}
	ivs := make([]region.Interval, len(keys))
	for i, k := range keys {
		b := bucketOf(k, f.buckets)
		if !f.cover.S.Contains(b) {
			return nil, fmt.Errorf("dataitem: insert key %v outside fragment buckets %v", k, f.cover)
		}
		ivs[i] = region.Interval{Lo: b, Hi: b + 1}
	}
	carried := region.NewIntervalSet(ivs...)
	for k := range f.vals {
		if carried.Contains(bucketOf(k, f.buckets)) {
			delete(f.vals, k)
		}
	}
	for i, k := range keys {
		f.vals[k] = vals[i]
	}
	return IntervalRegion{S: carried}, nil
}
