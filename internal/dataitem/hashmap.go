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
// hash buckets, and the map is a 1-d grid of them: a region is a set of
// bucket ranges, and a bucket — every pair whose key hashes to it — is
// one grid element, stored, resized and moved as the grid's are.
type MapType[K comparable, V any] struct {
	*GridType[mapBucket[K, V]]
}

// NewMapType describes a map item with the given bucket count.
func NewMapType[K comparable, V any](name string, buckets int) *MapType[K, V] {
	if buckets <= 0 {
		panic("dataitem: map needs at least one bucket")
	}
	mustHaveElemForm[K](name)
	mustHaveElemForm[V](name)
	return &MapType[K, V]{NewGridType[mapBucket[K, V]](name, region.Point{buckets})}
}

// NewFragment implements Type.
func (t *MapType[K, V]) NewFragment() Fragment {
	return &MapFragment[K, V]{GridFragment: t.GridType.NewFragment().(*GridFragment[mapBucket[K, V]]), buckets: t.size[0]}
}

// BucketOf returns the bucket index of key k (deterministic across
// processes: FNV over the wire form of the key).
func (t *MapType[K, V]) BucketOf(k K) int64 { return int64(bucketOf(k, t.size[0])) }

// BucketRegion returns the region containing only the bucket of k.
func (t *MapType[K, V]) BucketRegion(k K) GridRegion {
	b := bucketOf(k, t.size[0])
	return GridRegionFromTo(region.Point{b}, region.Point{b + 1})
}

func bucketOf[K comparable](k K, buckets int) int {
	var scratch [64]byte
	buf, err := appendElems(scratch[:0], []K{k})
	if err != nil {
		// NewMapType checked that K has a form; what is left is a
		// key whose own AppendWire refuses it.
		panic(fmt.Sprintf("dataitem: unhashable map key %v: %v", k, err))
	}
	h := fnv.New64a()
	h.Write(buf)
	return int(h.Sum64() % uint64(buckets))
}

// mapBucket holds the pairs of one bucket; nil is the empty bucket.
// Its wire form is the keys, then the values, in the element codec's
// form, so an emptied bucket travels too.
type mapBucket[K comparable, V any] map[K]V

// AppendWire implements wire.Marshaler.
func (b *mapBucket[K, V]) AppendWire(buf []byte) ([]byte, error) {
	keys := make([]K, 0, len(*b))
	vals := make([]V, 0, len(*b))
	for k, v := range *b {
		keys = append(keys, k)
		vals = append(vals, v)
	}
	buf, err := appendElems(buf, keys)
	if err != nil {
		return nil, err
	}
	return appendElems(buf, vals)
}

// UnmarshalWire implements wire.Unmarshaler. A bucket does not know its
// index; MapFragment.Insert checks that the keys hash to it.
func (b *mapBucket[K, V]) UnmarshalWire(d *wire.Decoder) error {
	keys := decodeElems[K](d)
	vals := decodeElems[V](d)
	if err := d.Err(); err != nil {
		return err
	}
	if len(keys) != len(vals) {
		return fmt.Errorf("dataitem: map bucket carries %d keys but %d values", len(keys), len(vals))
	}
	*b = make(mapBucket[K, V], len(keys))
	for i, k := range keys {
		(*b)[k] = vals[i]
	}
	return nil
}

// MapFragment stores the buckets of a bucket region. It is the grid
// fragment of its buckets — Region, Resize and Extract are the grid's,
// Insert is the grid's after a check of the keys — so tasks of one rank
// write distinct buckets while the manager resizes, each in its own
// element of the published state.
type MapFragment[K comparable, V any] struct {
	*GridFragment[mapBucket[K, V]]
	buckets int
}

var _ Fragment = (*MapFragment[string, int])(nil)

// Insert implements Fragment: the grid's, refusing a payload in which
// a key arrives in a bucket it does not hash to. Stored there, the pair
// is one that Get, Put and Delete never find, or panic on when its own
// bucket is not covered.
func (f *MapFragment[K, V]) Insert(data []byte) (Region, error) {
	return f.insert(data, func(box region.Box, bs []mapBucket[K, V]) error {
		for i, b := range bs {
			for k := range b {
				if own := bucketOf(k, f.buckets); own != box.Min[0]+i {
					return fmt.Errorf("dataitem: map key %v of bucket %d arrives in bucket %d", k, own, box.Min[0]+i)
				}
			}
		}
		return nil
	})
}

// bucket returns the bucket of k; it panics when that bucket is
// outside the fragment (a missing data requirement).
func (f *MapFragment[K, V]) bucket(k K) *mapBucket[K, V] {
	return f.Ptr(region.Point{bucketOf(k, f.buckets)})
}

// Covers reports whether the bucket of key k is held locally.
func (f *MapFragment[K, V]) Covers(k K) bool {
	return f.GridFragment.Covers(region.Point{bucketOf(k, f.buckets)})
}

// Get returns the value of k; same containment contract as bucket.
func (f *MapFragment[K, V]) Get(k K) (V, bool) {
	v, ok := (*f.bucket(k))[k]
	return v, ok
}

// Put stores v under k; same containment contract as Get.
func (f *MapFragment[K, V]) Put(k K, v V) {
	b := f.bucket(k)
	if *b == nil {
		*b = make(mapBucket[K, V])
	}
	(*b)[k] = v
}

// Delete removes k; same containment contract as Get.
func (f *MapFragment[K, V]) Delete(k K) { delete(*f.bucket(k), k) }

// Len returns the number of locally stored pairs.
func (f *MapFragment[K, V]) Len() int {
	n := 0
	f.ForEach(func(K, V) { n++ })
	return n
}

// ForEach visits every locally stored pair in unspecified order.
func (f *MapFragment[K, V]) ForEach(fn func(K, V)) {
	for _, blk := range f.state.Load().blocks {
		for i := blk.box.Min[0]; i < blk.box.Max[0]; i++ {
			for k, v := range blk.data[i-blk.alloc.Min[0]] {
				fn(k, v)
			}
		}
	}
}
