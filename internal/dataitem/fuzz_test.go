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
	for _, r := range []Region{
		nil,
		GridRegionFromTo(region.Point{1, 2}, region.Point{5, 9}).Union(GridRegionFromTo(region.Point{10, 10}, region.Point{12, 12})),
		IntervalFromTo(3, 9).Union(IntervalFromTo(20, 25)),
		TreeItemRegion{T: region.TreeRegionFromSubtrees(5, []region.NodeID{2}, []region.NodeID{5})},
	} {
		data, err := AppendRegionWire(nil, r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
	}
	for _, kind := range []byte{regionWireGrid, regionWireInterval, regionWireTree} {
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

// insertTargets builds the four fragment kinds, each with a numeric
// and a struct element type. Every fragment covers only part of its
// item, so a payload can be well-formed and still out of bounds.
func insertTargets(t testing.TB) []insertTarget {
	box := GridRegionFromTo(region.Point{1, 0}, region.Point{3, 4})
	span := IntervalFromTo(2, 7)
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
		newTarget(t, NewArrayType[int64]("fz.array", 8), span,
			func(f *ArrayFragment[int64]) {
				for i := int64(2); i < 7; i++ {
					f.Set(i, i*i)
				}
			},
			func(f *ArrayFragment[int64]) (s string) {
				for i := int64(2); i < 7; i++ {
					s += fmt.Sprint(f.At(i), ";")
				}
				return s
			}),
		newTarget(t, NewArrayType[gridElem]("fz.array.struct", 8), span,
			func(f *ArrayFragment[gridElem]) {
				for i := int64(2); i < 7; i++ {
					f.Set(i, elem(int(i)))
				}
			},
			func(f *ArrayFragment[gridElem]) (s string) {
				for i := int64(2); i < 7; i++ {
					s += fmt.Sprint(f.At(i), ";")
				}
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
		newTarget(t, NewMapType[int64, float64]("fz.map", 8), span,
			func(f *MapFragment[int64, float64]) {
				for k := int64(0); k < 40; k++ {
					if f.Covers(k) {
						f.Put(k, float64(k)/3)
					}
				}
			},
			func(f *MapFragment[int64, float64]) string { return fmt.Sprint(f.vals) }),
		newTarget(t, NewMapType[string, gridElem]("fz.map.struct", 8), span,
			func(f *MapFragment[string, gridElem]) {
				for i := 0; i < 40; i++ {
					if k := fmt.Sprint("key", i); f.Covers(k) {
						f.Put(k, elem(i))
					}
				}
			},
			func(f *MapFragment[string, gridElem]) string { return fmt.Sprint(f.vals) }),
	}
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
	})
}
