package dataitem

import (
	"bytes"
	"fmt"
	"testing"

	"allscale/internal/region"
	"allscale/internal/wire"
)

// FuzzDecodeRegionWire feeds arbitrary bytes to the region decoder: an
// error or a region, never a panic or an allocation sized by the
// input; and whatever decodes re-encodes to bytes that decode to an
// equal region encoding the same.
func FuzzDecodeRegionWire(f *testing.F) {
	var frames [][]byte
	for _, r := range []Region{
		nil,
		GridRegionFromTo(region.Point{1, 2}, region.Point{5, 9}).Union(GridRegionFromTo(region.Point{10, 10}, region.Point{12, 12})),
		TreeItemRegion{T: region.TreeRegionFromSubtrees(5, []region.NodeID{2}, []region.NodeID{5})},
	} {
		data, err := AppendRegionWire(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		frames = append(frames, data)
	}
	// Kind 2, the retired interval form of [3,9) ∪ [20,25): unknown now.
	frames = append(frames, []byte{2, 2, 6, 18, 40, 50})
	for _, data := range frames {
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	for _, kind := range []byte{regionWireGrid, 2, regionWireTree} {
		f.Add(wire.AppendUvarint([]byte{kind, 3}, 1<<62))
	}
	// A 1-d and a 2-d box in one grid region (found by dim's
	// FuzzHeaderUnmarshal: the box set panicked on the mix).
	f.Add([]byte{regionWireGrid, 2, 1, 0, 2, 2, 0, 0, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRegionWire(wire.NewDecoder(data))
		if err != nil {
			return
		}
		first, err := AppendRegionWire(nil, r)
		if err != nil {
			t.Fatalf("decoded region %v does not re-encode: %v", r, err)
		}
		back, err := DecodeRegionWire(wire.NewDecoder(first))
		if err != nil {
			t.Fatalf("re-encoded region does not decode: %v", err)
		}
		if (r == nil) != (back == nil) || r != nil && !back.Equal(r) {
			t.Fatalf("region %v re-decoded as %v", r, back)
		}
		if second, _ := AppendRegionWire(nil, back); !bytes.Equal(first, second) {
			t.Fatalf("re-encoding is not stable: %x then %x", first, second)
		}
	})
}

// insertTarget is a fragment with known content for FuzzFragmentInsert.
type insertTarget struct {
	frag  Fragment
	valid []byte        // a payload the fragment accepts
	state func() string // the stored elements, rendered
	seeds [][]byte      // more payloads to start from
	sound func() error  // checks what Insert must keep true, if set
}

// newTarget resizes a fresh fragment of typ to cover and lets set store
// its content.
func newTarget[F Fragment](t testing.TB, typ Type, cover Region, set func(F), state func(F) string) insertTarget {
	f := typ.NewFragment().(F)
	if err := f.Resize(cover); err != nil {
		t.Fatal(err)
	}
	set(f)
	valid, err := f.Extract(cover)
	if err != nil {
		t.Fatal(err)
	}
	return insertTarget{frag: f, valid: valid, state: func() string { return state(f) }}
}

// insertTargets builds a 2-d grid, a 1-d grid (an array), a tree and a
// map, each with a numeric and a struct element type. Every fragment
// covers only part of its item, so a payload can be well-formed and
// still out of bounds.
func insertTargets(t testing.TB) []insertTarget {
	box := GridRegionFromTo(region.Point{1, 0}, region.Point{3, 4})
	span := GridRegionFromTo(region.Point{2}, region.Point{7})
	subtree := TreeItemRegion{T: region.SubtreeRegion(4, 2)}
	elem := func(i int) gridElem { return gridElem{A: int64(i), B: float64(i) / 4} }
	return []insertTarget{
		newTarget(t, NewGridType[float64]("fz.grid", region.Point{4, 4}), box,
			func(f *GridFragment[float64]) {
				box.B.ForEachPoint(func(p region.Point) { f.Set(p, float64(10*p[0]+p[1])) })
			},
			func(f *GridFragment[float64]) (s string) {
				box.B.ForEachPoint(func(p region.Point) { s += fmt.Sprint(p, f.At(p), ";") })
				return s
			}),
		newTarget(t, NewGridType[gridElem]("fz.grid.struct", region.Point{4, 4}), box,
			func(f *GridFragment[gridElem]) {
				box.B.ForEachPoint(func(p region.Point) { f.Set(p, elem(10*p[0]+p[1])) })
			},
			func(f *GridFragment[gridElem]) (s string) {
				box.B.ForEachPoint(func(p region.Point) { s += fmt.Sprint(p, f.At(p), ";") })
				return s
			}),
		newTarget(t, NewGridType[int64]("fz.array", region.Point{8}), span,
			func(f *GridFragment[int64]) {
				span.B.ForEachPoint(func(p region.Point) { f.Set(p, int64(p[0]*p[0])) })
			},
			func(f *GridFragment[int64]) (s string) {
				span.B.ForEachPoint(func(p region.Point) { s += fmt.Sprint(f.At(p), ";") })
				return s
			}),
		newTarget(t, NewGridType[gridElem]("fz.array.struct", region.Point{8}), span,
			func(f *GridFragment[gridElem]) {
				span.B.ForEachPoint(func(p region.Point) { f.Set(p, elem(p[0])) })
			},
			func(f *GridFragment[gridElem]) (s string) {
				span.B.ForEachPoint(func(p region.Point) { s += fmt.Sprint(f.At(p), ";") })
				return s
			}),
		newTarget(t, NewTreeType[float32]("fz.tree", 4), subtree,
			func(f *TreeFragment[float32]) {
				subtree.T.ForEachNode(func(n region.NodeID) { f.Set(n, float32(n)/2) })
			},
			func(f *TreeFragment[float32]) (s string) {
				subtree.T.ForEachNode(func(n region.NodeID) { s += fmt.Sprint(n, f.At(n), ";") })
				return s
			}),
		newTarget(t, NewTreeType[gridElem]("fz.tree.struct", 4), subtree,
			func(f *TreeFragment[gridElem]) {
				subtree.T.ForEachNode(func(n region.NodeID) { f.Set(n, elem(int(n))) })
			},
			func(f *TreeFragment[gridElem]) (s string) {
				subtree.T.ForEachNode(func(n region.NodeID) { s += fmt.Sprint(n, f.At(n), ";") })
				return s
			}),
		mapTarget(t, NewMapType[int64, float64]("fz.map", 8), span,
			func(i int) int64 { return int64(i) }, func(i int) float64 { return float64(i) / 3 }),
		mapTarget(t, NewMapType[string, gridElem]("fz.map.struct", 8), span,
			func(i int) string { return fmt.Sprint("key", i) }, elem),
	}
}

// mapTarget is newTarget for a map holding the covered pairs of keys
// 0..39, plus what only a map can get wrong: a seed that moves one pair
// into a covered bucket its key does not hash to, and the check that
// every stored pair reads back through its own bucket.
func mapTarget[K comparable, V any](t testing.TB, typ *MapType[K, V], cover GridRegion, key func(int) K, val func(int) V) insertTarget {
	tg := newTarget(t, typ, cover,
		func(f *MapFragment[K, V]) {
			for i := 0; i < 40; i++ {
				if f.Covers(key(i)) {
					f.Put(key(i), val(i))
				}
			}
		},
		mapState[K, V])
	f := tg.frag.(*MapFragment[K, V])
	tg.sound = func() (err error) {
		f.ForEach(func(k K, v V) {
			if !f.Covers(k) {
				err = fmt.Errorf("key %v stored, its bucket %d not covered", k, typ.BucketOf(k))
			} else if got, ok := f.Get(k); !ok || fmt.Sprint(got) != fmt.Sprint(v) {
				err = fmt.Errorf("key %v stored as %v reads %v,%v", k, v, got, ok)
			}
		})
		return err
	}
	moved := typ.NewFragment().(*MapFragment[K, V])
	if err := moved.Resize(cover); err != nil {
		t.Fatal(err)
	}
	lo := cover.B.Boxes()[0].Min[0]
	for i := 0; ; i++ {
		if f.Covers(key(i)) {
			to := lo
			if int(typ.BucketOf(key(i))) == lo {
				to++
			}
			*moved.Ptr(region.Point{to}) = mapBucket[K, V]{key(i): val(i)}
			break
		}
	}
	seed, err := moved.Extract(cover)
	if err != nil {
		t.Fatal(err)
	}
	tg.seeds = [][]byte{seed}
	return tg
}

// mapState renders the pairs of f; fmt prints a map in key order, where
// a bucket's own iteration order is random.
func mapState[K comparable, V any](f *MapFragment[K, V]) string {
	pairs := map[K]V{}
	f.ForEach(func(k K, v V) { pairs[k] = v })
	return fmt.Sprint(pairs)
}

// FuzzFragmentInsert feeds arbitrary payloads to Insert of every
// fragment kind. A payload is refused as a whole — an error, never a
// panic, and the fragment holds what it held — or accepted, and then
// the region Insert reports lies inside the fragment and extracts.
func FuzzFragmentInsert(f *testing.F) {
	for i, tg := range insertTargets(f) {
		f.Add(uint8(i), tg.valid)
		f.Add(uint8(i), tg.valid[:len(tg.valid)/2])
		f.Add(uint8(i), tg.valid[:len(tg.valid)-1])
		f.Add(uint8(i+1), tg.valid) // another element type's or kind's payload
		f.Add(uint8(i), wire.AppendUvarint([]byte{wire.FormatBinary}, 1<<62))
		f.Add(uint8(i), append([]byte{0x00}, tg.valid[1:]...))
		for _, seed := range tg.seeds {
			f.Add(uint8(i), seed)
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		targets := insertTargets(t)
		tg := targets[int(which)%len(targets)]
		before := tg.state()
		r, err := tg.frag.Insert(data)
		if err != nil {
			if after := tg.state(); after != before {
				t.Fatalf("refused payload changed the fragment:\n%s\nthen\n%s", before, after)
			}
			return
		}
		if !r.Difference(tg.frag.Region()).IsEmpty() {
			t.Fatalf("inserted region %v outside fragment %v", r, tg.frag.Region())
		}
		if _, err := tg.frag.Extract(r); err != nil {
			t.Fatalf("inserted region %v does not extract: %v", r, err)
		}
		if tg.sound != nil {
			if err := tg.sound(); err != nil {
				t.Fatalf("accepted payload left the fragment unsound: %v", err)
			}
		}
	})
}
