package dataitem

import (
	"encoding/hex"
	"strings"
	"testing"

	"allscale/internal/region"
	"allscale/internal/wire"
)

// extract returns the payload of r, checking its format tag.
func extract(t *testing.T, f Fragment, r Region) []byte {
	t.Helper()
	data, err := f.Extract(r)
	if err != nil {
		t.Fatal(err)
	}
	if data[0] != wire.FormatBinary {
		t.Fatalf("payload tag %#x, want %#x", data[0], wire.FormatBinary)
	}
	return data
}

// insertInto inserts payload into a fresh fragment covering cover and
// returns the fragment and the region Insert reports as covered.
func insertInto(t *testing.T, typ Type, cover Region, payload []byte) (Fragment, Region) {
	t.Helper()
	f := typ.NewFragment()
	if err := f.Resize(cover); err != nil {
		t.Fatal(err)
	}
	got, err := f.Insert(payload)
	if err != nil {
		t.Fatal(err)
	}
	return f, got
}

// gridElem is a struct element type: it travels element by element in
// the form it declares.
type gridElem struct {
	A int64
	B float64
}

func (e *gridElem) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendVarint(buf, e.A)
	return wire.AppendFloat64(buf, e.B), nil
}

func (e *gridElem) UnmarshalWire(d *wire.Decoder) error {
	e.A = d.Varint()
	e.B = d.Float64()
	return nil
}

// formless is a struct with no declared wire form, celsius a named
// numeric type: neither can be an element type.
type (
	formless struct{ A int }
	celsius  float64
)

// haloGrid returns a fully covered 8×8 grid holding 100·x + y + ½.
func haloGrid(t testing.TB) *GridFragment[float64] {
	typ := NewGridType[float64]("wf.halo", region.Point{8, 8})
	f := typ.NewFragment().(*GridFragment[float64])
	if err := f.Resize(typ.FullRegion()); err != nil {
		t.Fatal(err)
	}
	typ.FullRegion().(GridRegion).B.ForEachPoint(func(p region.Point) {
		f.Set(p, float64(p[0]*100+p[1])+0.5)
	})
	return f
}

// TestGridHaloPayloadGolden pins the float64 grid payload — what a
// stencil halo exchange puts on the wire — to the bytes the runtime
// produced before the element codec replaced the per-fragment forms
// (a halo row plus a second box, extracted at the parent commit).
func TestGridHaloPayloadGolden(t *testing.T) {
	const golden = "0102020600081001080000000000c872400000000000d872400000000000e872400000000000f872400000000000087340000000000018734000000000002873400000000000387340020c04100801040000000000d482400000000000dc82400000000000f485400000000000fc8540"
	f := haloGrid(t)
	halo := GridRegion{B: region.NewBoxSet(
		region.NewBox(region.Point{3, 0}, region.Point{4, 8}),
		region.NewBox(region.Point{6, 2}, region.Point{8, 4}),
	)}
	if got := hex.EncodeToString(extract(t, f, halo)); got != golden {
		t.Fatalf("halo payload changed:\n got %s\nwant %s", got, golden)
	}
}

// TestGridRoundTrip extracts a sub-region spanning two stored blocks
// and checks values and the reported region, for a numeric and for a
// struct element type; TestArrayRoundTrip is its 1-d case.
func TestGridRoundTrip(t *testing.T) {
	typ := NewGridType[float64]("wf.grid", region.Point{8, 8})
	src := typ.NewFragment().(*GridFragment[float64])
	cover := region.NewBoxSet(
		region.NewBox(region.Point{0, 0}, region.Point{5, 6}),
		region.NewBox(region.Point{5, 2}, region.Point{8, 8}),
	)
	if err := src.Resize(GridRegion{B: cover}); err != nil {
		t.Fatal(err)
	}
	cover.ForEachPoint(func(p region.Point) {
		src.Set(p, float64(p[0]*100+p[1])+0.5)
	})
	sub := GridRegion{B: region.NewBoxSet(
		region.NewBox(region.Point{1, 3}, region.Point{7, 6}),
	)}
	f, r := insertInto(t, typ, GridRegion{B: cover}, extract(t, src, sub))
	if !r.Equal(sub) {
		t.Fatalf("covered region %v, want %v", r, sub)
	}
	sub.B.ForEachPoint(func(p region.Point) {
		want := float64(p[0]*100+p[1]) + 0.5
		if got := f.(*GridFragment[float64]).At(p); got != want {
			t.Fatalf("at %v got %v, want %v", p, got, want)
		}
	})

	styp := NewGridType[gridElem]("wf.grid.struct", region.Point{4, 4})
	ssrc := styp.NewFragment().(*GridFragment[gridElem])
	full := styp.FullRegion()
	if err := ssrc.Resize(full); err != nil {
		t.Fatal(err)
	}
	full.(GridRegion).B.ForEachPoint(func(p region.Point) {
		ssrc.Set(p, gridElem{A: int64(p[0]), B: float64(p[1]) / 2})
	})
	sf, sr := insertInto(t, styp, full, extract(t, ssrc, full))
	if !sr.Equal(full) {
		t.Fatalf("covered %v, want %v", sr, full)
	}
	full.(GridRegion).B.ForEachPoint(func(p region.Point) {
		want := gridElem{A: int64(p[0]), B: float64(p[1]) / 2}
		if got := sf.(*GridFragment[gridElem]).At(p); got != want {
			t.Fatalf("at %v got %v, want %v", p, got, want)
		}
	})
}

// TestArrayRoundTrip does the same for arrays, which are 1-d grids: a
// numeric element over two disjoint stored ranges, and a struct one.
func TestArrayRoundTrip(t *testing.T) {
	atyp := NewGridType[int64]("wf.array", region.Point{64})
	asrc := atyp.NewFragment().(*GridFragment[int64])
	acover := GridRegionFromTo(region.Point{0}, region.Point{20}).Union(GridRegionFromTo(region.Point{40}, region.Point{64}))
	if err := asrc.Resize(acover); err != nil {
		t.Fatal(err)
	}
	acover.(GridRegion).B.ForEachPoint(func(p region.Point) { asrc.Set(p, int64(p[0]*p[0])) })
	asub := GridRegionFromTo(region.Point{5}, region.Point{15}).Union(GridRegionFromTo(region.Point{50}, region.Point{60}))
	af, ar := insertInto(t, atyp, acover, extract(t, asrc, asub))
	if !ar.Equal(asub) {
		t.Fatalf("covered %v, want %v", ar, asub)
	}
	asub.(GridRegion).B.ForEachPoint(func(p region.Point) {
		if got := af.(*GridFragment[int64]).At(p); got != int64(p[0]*p[0]) {
			t.Fatalf("at %v got %d, want %d", p, got, p[0]*p[0])
		}
	})

	astyp := NewGridType[gridElem]("wf.array.struct", region.Point{8})
	assrc := astyp.NewFragment().(*GridFragment[gridElem])
	asfull := astyp.FullRegion()
	if err := assrc.Resize(asfull); err != nil {
		t.Fatal(err)
	}
	asfull.(GridRegion).B.ForEachPoint(func(p region.Point) {
		assrc.Set(p, gridElem{A: int64(p[0]), B: float64(p[0]) * 1.5})
	})
	asf, _ := insertInto(t, astyp, asfull, extract(t, assrc, asfull))
	asfull.(GridRegion).B.ForEachPoint(func(p region.Point) {
		want := gridElem{A: int64(p[0]), B: float64(p[0]) * 1.5}
		if got := asf.(*GridFragment[gridElem]).At(p); got != want {
			t.Fatalf("at %v got %v, want %v", p, got, want)
		}
	})
}

// TestTreeRoundTrip covers a numeric and a string payload type.
func TestTreeRoundTrip(t *testing.T) {
	typ := NewTreeType[float32]("wf.tree", 4)
	src := typ.NewFragment().(*TreeFragment[float32])
	full := typ.FullRegion()
	if err := src.Resize(full); err != nil {
		t.Fatal(err)
	}
	full.(TreeItemRegion).T.ForEachNode(func(n region.NodeID) {
		src.Set(n, float32(n)*0.25)
	})
	f, r := insertInto(t, typ, full, extract(t, src, full))
	if !r.Equal(full) {
		t.Fatalf("covered %v, want %v", r, full)
	}
	full.(TreeItemRegion).T.ForEachNode(func(n region.NodeID) {
		if got := f.(*TreeFragment[float32]).At(n); got != float32(n)*0.25 {
			t.Fatalf("node %v got %v, want %v", n, got, float32(n)*0.25)
		}
	})

	styp := NewTreeType[string]("wf.tree.str", 3)
	ssrc := styp.NewFragment().(*TreeFragment[string])
	sfull := styp.FullRegion()
	if err := ssrc.Resize(sfull); err != nil {
		t.Fatal(err)
	}
	sfull.(TreeItemRegion).T.ForEachNode(func(n region.NodeID) {
		ssrc.Set(n, strings.Repeat("n", int(n)))
	})
	sf, _ := insertInto(t, styp, sfull, extract(t, ssrc, sfull))
	sfull.(TreeItemRegion).T.ForEachNode(func(n region.NodeID) {
		if got := sf.(*TreeFragment[string]).At(n); got != strings.Repeat("n", int(n)) {
			t.Fatalf("node %v got %q", n, got)
		}
	})
}

// TestMapRoundTrip covers numeric pairs, string keys and struct
// values.
func TestMapRoundTrip(t *testing.T) {
	typ := NewMapType[int64, float64]("wf.map", 16)
	src := typ.NewFragment().(*MapFragment[int64, float64])
	full := typ.FullRegion()
	if err := src.Resize(full); err != nil {
		t.Fatal(err)
	}
	for k := int64(0); k < 40; k++ {
		src.Put(k, float64(k)/3)
	}
	f, _ := insertInto(t, typ, full, extract(t, src, full))
	for k := int64(0); k < 40; k++ {
		if v, ok := f.(*MapFragment[int64, float64]).Get(k); !ok || v != float64(k)/3 {
			t.Fatalf("key %d got %v (%v), want %v", k, v, ok, float64(k)/3)
		}
	}

	styp := NewMapType[string, gridElem]("wf.map.str", 8)
	ssrc := styp.NewFragment().(*MapFragment[string, gridElem])
	sfull := styp.FullRegion()
	if err := ssrc.Resize(sfull); err != nil {
		t.Fatal(err)
	}
	ssrc.Put("alpha", gridElem{A: 1})
	ssrc.Put("beta", gridElem{A: 2, B: 0.5})
	sf, _ := insertInto(t, styp, sfull, extract(t, ssrc, sfull))
	if v, ok := sf.(*MapFragment[string, gridElem]).Get("beta"); !ok || v != (gridElem{A: 2, B: 0.5}) {
		t.Fatalf(`key "beta" got %v (%v)`, v, ok)
	}
}

// TestGridInsertRefusesForeignDimension: an empty box is inside every
// region, so the bounds check alone let an 8-d one through to the 2-d
// block copy, which indexed past its corners.
func TestGridInsertRefusesForeignDimension(t *testing.T) {
	f := haloGrid(t)
	payload := wire.AppendUvarint([]byte{wire.FormatBinary}, 1)
	payload = appendBox(payload, region.Box{Min: make(region.Point, 8), Max: make(region.Point, 8)})
	payload = wire.AppendNumeric(payload, []float64{})
	if r, err := f.Insert(payload); err == nil {
		t.Fatalf("8-d box inserted into a 2-d grid, covering %v", r)
	}
}

// TestElementTypeWithoutFormPanicsAtRegistration: an item type whose
// elements could not migrate is refused where it is declared.
func TestElementTypeWithoutFormPanicsAtRegistration(t *testing.T) {
	for name, declare := range map[string]func(){
		"grid":         func() { NewGridType[formless]("bad", region.Point{2}) },
		"grid-named":   func() { NewGridType[celsius]("bad", region.Point{2}) },
		"tree":         func() { NewTreeType[formless]("bad", 2) },
		"map-key":      func() { NewMapType[formless, int]("bad", 2) },
		"map-value":    func() { NewMapType[int, formless]("bad", 2) },
		"grid-pointer": func() { NewGridType[*gridElem]("bad", region.Point{2}) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "has no wire form") {
					t.Errorf("%s: recovered %q, want a panic naming the missing wire form", name, msg)
				}
			}()
			declare()
		}()
	}
}

// TestRegionWireRoundTrip exercises the compact region codec for the
// two schemes, a 1-d grid among them, and the nil region.
func TestRegionWireRoundTrip(t *testing.T) {
	regions := []Region{
		nil,
		GridRegion{B: region.NewBoxSet(
			region.NewBox(region.Point{-3, 0}, region.Point{4, 9}),
			region.NewBox(region.Point{10, 10}, region.Point{12, 20}),
		)},
		GridRegionFromTo(region.Point{-5}, region.Point{3}).Union(GridRegionFromTo(region.Point{100}, region.Point{1000})),
		TreeItemRegion{T: region.FullTreeRegion(3)},
		TreeItemRegion{T: region.TreeRegionFromSubtrees(5, []region.NodeID{2}, []region.NodeID{5})},
	}
	for _, r := range regions {
		buf, err := AppendRegionWire(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		d := wire.NewDecoder(buf)
		got, err := DecodeRegionWire(d)
		if err != nil {
			t.Fatal(err)
		}
		if d.Len() != 0 {
			t.Fatalf("region %v left %d undecoded bytes", r, d.Len())
		}
		if r == nil {
			if got != nil {
				t.Fatalf("nil region decoded to %v", got)
			}
			continue
		}
		if !got.Equal(r) {
			t.Fatalf("region round trip: got %v, want %v", got, r)
		}
	}
}

// foreignRegion is a Region this package does not know.
type foreignRegion struct{ GridRegion }

func TestForeignRegionHasNoWireForm(t *testing.T) {
	if _, err := AppendRegionWire(nil, foreignRegion{}); err == nil || !strings.Contains(err.Error(), "foreignRegion") {
		t.Fatalf("foreign region type: %v, want an error naming it", err)
	}
}

// TestRegionWireCountIsBounded: a peer-chosen count must not size an
// allocation. A 10-byte frame announcing 1<<62 entries used to panic
// the receiver with "makeslice: cap out of range".
func TestRegionWireCountIsBounded(t *testing.T) {
	for _, kind := range []byte{regionWireGrid, regionWireTree} {
		frame := []byte{kind}
		if kind == regionWireTree {
			frame = append(frame, 3) // height
		}
		frame = wire.AppendUvarint(frame, 1<<62)
		if r, err := DecodeRegionWire(wire.NewDecoder(frame)); err == nil {
			t.Errorf("kind %d: count 1<<62 in %d bytes decoded to %v", kind, len(frame), r)
		}
	}
}

// TestRegionWireKind2IsUnknown: kind 2 carried the interval sets of
// arrays and maps, which are grids now; a frame of that kind is refused
// like any unknown kind.
func TestRegionWireKind2IsUnknown(t *testing.T) {
	frame := []byte{2, 1, 6, 18} // kind 2, one pair [3, 9)
	if r, err := DecodeRegionWire(wire.NewDecoder(frame)); err == nil || !strings.Contains(err.Error(), "unknown region wire kind") {
		t.Fatalf("kind-2 frame decoded to %v, %v; want an unknown-kind error", r, err)
	}
}
