package dataitem

import (
	"strings"
	"sync"
	"testing"

	"allscale/internal/region"
)

func p(xs ...int) region.Point { return region.Point(xs) }

func TestGridFragmentResizeAndAccess(t *testing.T) {
	typ := NewGridType[float64]("grid2d", p(10, 10))
	f := typ.NewFragment().(*GridFragment[float64])
	if !f.Region().IsEmpty() {
		t.Fatal("fresh fragment must cover nothing")
	}
	if err := f.Resize(GridRegionFromTo(p(0, 0), p(5, 10))); err != nil {
		t.Fatal(err)
	}
	if got := f.Region().Size(); got != 50 {
		t.Fatalf("region size = %d, want 50", got)
	}
	f.Set(p(2, 3), 42.5)
	if got := f.At(p(2, 3)); got != 42.5 {
		t.Fatalf("At = %v", got)
	}
	if got := f.At(p(4, 9)); got != 0 {
		t.Fatalf("uninitialized element = %v, want 0", got)
	}
	// Growing preserves data.
	if err := f.Resize(GridRegionFromTo(p(0, 0), p(7, 10))); err != nil {
		t.Fatal(err)
	}
	if got := f.At(p(2, 3)); got != 42.5 {
		t.Fatalf("data lost on grow: %v", got)
	}
	// Shrinking away drops elements.
	if err := f.Resize(GridRegionFromTo(p(5, 0), p(7, 10))); err != nil {
		t.Fatal(err)
	}
	if f.Covers(p(2, 3)) {
		t.Fatal("shrunk fragment still covers dropped point")
	}
}

func TestGridFragmentOutOfRegionPanics(t *testing.T) {
	typ := NewGridType[int]("grid1", p(4, 4))
	f := typ.NewFragment().(*GridFragment[int])
	f.Resize(GridRegionFromTo(p(0, 0), p(2, 2)))
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-region access must panic")
		}
	}()
	f.At(p(3, 3))
}

func TestGridExtractInsertRoundTrip(t *testing.T) {
	typ := NewGridType[int]("gridA", p(8, 8))
	src := typ.NewFragment().(*GridFragment[int])
	src.Resize(GridRegionFromTo(p(0, 0), p(8, 4)))
	n := 0
	region.BoxFromTo(p(0, 0), p(8, 4)).ForEachPoint(func(q region.Point) {
		src.Set(q, n)
		n++
	})

	// Transfer the band [3,0)..(5,4) into a destination fragment.
	xfer := GridRegionFromTo(p(3, 0), p(5, 4))
	data, err := src.Extract(xfer)
	if err != nil {
		t.Fatal(err)
	}
	dst := typ.NewFragment().(*GridFragment[int])
	dst.Resize(GridRegionFromTo(p(3, 0), p(6, 4)))
	covered, err := dst.Insert(data)
	if err != nil {
		t.Fatal(err)
	}
	if !covered.Equal(xfer) {
		t.Fatalf("insert covered %v, want %v", covered, xfer)
	}
	region.BoxFromTo(p(3, 0), p(5, 4)).ForEachPoint(func(q region.Point) {
		if dst.At(q) != src.At(q) {
			t.Fatalf("mismatch at %v: %d != %d", q, dst.At(q), src.At(q))
		}
	})
}

func TestGridExtractRequiresCoverage(t *testing.T) {
	typ := NewGridType[int]("gridB", p(8, 8))
	f := typ.NewFragment().(*GridFragment[int])
	f.Resize(GridRegionFromTo(p(0, 0), p(4, 4)))
	if _, err := f.Extract(GridRegionFromTo(p(0, 0), p(5, 4))); err == nil {
		t.Fatal("extract beyond region must fail")
	}
}

func TestGridInsertRequiresCoverage(t *testing.T) {
	typ := NewGridType[int]("gridC", p(8, 8))
	src := typ.NewFragment().(*GridFragment[int])
	src.Resize(GridRegionFromTo(p(0, 0), p(4, 4)))
	data, err := src.Extract(GridRegionFromTo(p(0, 0), p(4, 4)))
	if err != nil {
		t.Fatal(err)
	}
	dst := typ.NewFragment().(*GridFragment[int])
	dst.Resize(GridRegionFromTo(p(0, 0), p(2, 2)))
	if _, err := dst.Insert(data); err == nil {
		t.Fatal("insert beyond region must fail")
	}
}

func TestGridFragmentMultiBlock(t *testing.T) {
	typ := NewGridType[int]("gridD", p(10, 10))
	f := typ.NewFragment().(*GridFragment[int])
	// Two disjoint bands.
	r := GridRegionFromTo(p(0, 0), p(2, 10)).Union(GridRegionFromTo(p(8, 0), p(10, 10)))
	if err := f.Resize(r); err != nil {
		t.Fatal(err)
	}
	f.Set(p(1, 5), 11)
	f.Set(p(9, 5), 99)
	if f.At(p(1, 5)) != 11 || f.At(p(9, 5)) != 99 {
		t.Fatal("multi-block access broken")
	}
	if len(f.Blocks()) != 2 {
		t.Fatalf("blocks = %d, want 2", len(f.Blocks()))
	}
	if f.Covers(p(5, 5)) {
		t.Fatal("gap must not be covered")
	}
}

func TestGridDenseBlocksAliasStorage(t *testing.T) {
	typ := NewGridType[int]("gridE", p(4, 4))
	f := typ.NewFragment().(*GridFragment[int])
	f.Resize(GridRegionFromTo(p(0, 0), p(4, 4)))
	blocks := f.Blocks()
	if len(blocks) != 1 {
		t.Fatalf("blocks = %d", len(blocks))
	}
	blocks[0].Data[5] = 77 // row-major (1,1)
	if got := f.At(p(1, 1)); got != 77 {
		t.Fatalf("dense write not visible: %d", got)
	}
}

// TestGridResizeKeepsUntouchedBlocks is the halo pattern of a stencil
// half: a band grows by a neighbour's row and loses it again. The band
// itself must stay where it is — same backing array — through both.
func TestGridResizeKeepsUntouchedBlocks(t *testing.T) {
	typ := NewGridType[float64]("gridF", p(8, 8))
	f := typ.NewFragment().(*GridFragment[float64])
	band := GridRegionFromTo(p(0, 0), p(4, 8))
	row := GridRegionFromTo(p(4, 1), p(5, 7))
	if err := f.Resize(band); err != nil {
		t.Fatal(err)
	}
	f.Set(p(3, 3), 7)
	bandData := &f.Blocks()[0].Data[0]

	if err := f.Resize(band.Union(row)); err != nil {
		t.Fatal(err)
	}
	if got := &f.Blocks()[0].Data[0]; got != bandData {
		t.Fatal("growing by a halo row moved the band")
	}
	f.Set(p(4, 3), 9)
	old := f.Region()
	if err := f.Resize(old.Difference(row)); err != nil {
		t.Fatal(err)
	}
	if len(f.Blocks()) != 1 || &f.Blocks()[0].Data[0] != bandData {
		t.Fatal("dropping the halo row moved the band")
	}
	if f.At(p(3, 3)) != 7 || f.Covers(p(4, 3)) {
		t.Fatal("resize lost the band's data or kept the dropped row")
	}
	// A box that does change is rebuilt with its overlap preserved.
	if err := f.Resize(GridRegionFromTo(p(2, 0), p(4, 8))); err != nil {
		t.Fatal(err)
	}
	if &f.Blocks()[0].Data[0] == bandData || f.At(p(3, 3)) != 7 {
		t.Fatal("shrunk box must be rebuilt around the surviving data")
	}
}

func TestTreeFragmentBasics(t *testing.T) {
	typ := NewTreeType[string]("tree", 4)
	if got := typ.FullRegion().Size(); got != 15 {
		t.Fatalf("full region size = %d, want 15", got)
	}
	f := typ.NewFragment().(*TreeFragment[string])
	left := TreeItemRegion{T: region.SubtreeRegion(4, 2)}
	if err := f.Resize(left); err != nil {
		t.Fatal(err)
	}
	f.Set(4, "node4")
	if got := f.At(4); got != "node4" {
		t.Fatalf("At = %q", got)
	}
	if f.Covers(3) {
		t.Fatal("fragment must not cover right subtree")
	}
}

// TestTreeFragmentConcurrentWritersAndResize: tasks of one rank write
// disjoint subtrees while the manager grows the fragment for the next
// one — the TPC tree load, which used to die of "concurrent map writes"
// about once in forty. No access may touch a table under construction
// and no payload may be lost to a resize (run with -race).
func TestTreeFragmentConcurrentWritersAndResize(t *testing.T) {
	const height = 8
	typ := NewTreeType[int]("treeC", height)
	f := typ.NewFragment().(*TreeFragment[int])
	// Subtrees of depth 3: eight writers, each admitted by a resize that
	// runs while the earlier ones are still writing.
	cover := region.EmptyTreeRegion(height)
	var wg sync.WaitGroup
	for root := region.NodeID(8); root < 16; root++ {
		sub := region.SubtreeRegion(height, root)
		cover = cover.Union(sub)
		if err := f.Resize(TreeItemRegion{T: cover}); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub.ForEachNode(func(n region.NodeID) { f.Set(n, int(n)) })
		}()
	}
	wg.Wait()
	cover.ForEachNode(func(n region.NodeID) {
		if got := f.At(n); got != int(n) {
			t.Fatalf("node %v holds %d after the load", n, got)
		}
	})
}

func TestTreeExtractInsertRoundTrip(t *testing.T) {
	typ := NewTreeType[int]("treeB", 4)
	src := typ.NewFragment().(*TreeFragment[int])
	src.Resize(typ.FullRegion())
	for id := region.NodeID(1); id < 16; id++ {
		src.Set(id, int(id)*10)
	}
	sub := TreeItemRegion{T: region.SubtreeRegion(4, 3)}
	data, err := src.Extract(sub)
	if err != nil {
		t.Fatal(err)
	}
	dst := typ.NewFragment().(*TreeFragment[int])
	dst.Resize(sub)
	covered, err := dst.Insert(data)
	if err != nil {
		t.Fatal(err)
	}
	if !covered.Equal(sub) {
		t.Fatalf("covered %v, want %v", covered, sub)
	}
	if dst.At(3) != 30 || dst.At(14) != 140 {
		t.Fatal("tree payload mismatch after transfer")
	}
}

func TestArrayFragment(t *testing.T) {
	typ := NewArrayType[float32]("arr", 100)
	f := typ.NewFragment().(*ArrayFragment[float32])
	if err := f.Resize(IntervalFromTo(10, 20)); err != nil {
		t.Fatal(err)
	}
	f.Set(15, 1.5)
	if got := f.At(15); got != 1.5 {
		t.Fatalf("At = %v", got)
	}
	data, err := f.Extract(IntervalFromTo(14, 16))
	if err != nil {
		t.Fatal(err)
	}
	g := typ.NewFragment().(*ArrayFragment[float32])
	g.Resize(IntervalFromTo(0, 100))
	if _, err := g.Insert(data); err != nil {
		t.Fatal(err)
	}
	if got := g.At(15); got != 1.5 {
		t.Fatalf("transferred value = %v", got)
	}
}

func TestScalarType(t *testing.T) {
	typ := NewScalarType[int64]("counter")
	if typ.FullRegion().Size() != 1 {
		t.Fatal("scalar must have one element")
	}
	f := typ.NewFragment().(*ArrayFragment[int64])
	f.Resize(typ.FullRegion())
	f.Set(0, 7)
	if f.At(0) != 7 {
		t.Fatal("scalar access broken")
	}
}

func TestRegionTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("cross-type union must panic")
		}
	}()
	GridRegionFromTo(p(0), p(1)).Union(IntervalFromTo(0, 1))
}

func TestRegionEqualAcrossTypesIsFalse(t *testing.T) {
	if GridRegionFromTo(p(0), p(1)).Equal(IntervalFromTo(0, 1)) {
		t.Fatal("regions of different types must not be equal")
	}
}

func TestRegistry(t *testing.T) {
	reg := NewRegistry()
	typ := NewGridType[int]("field", p(4))
	if err := reg.Register(typ); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(NewGridType[int]("field", p(8))); err == nil {
		t.Fatal("duplicate registration must fail")
	}
	got, err := reg.Lookup("field")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name() != "field" {
		t.Fatalf("lookup returned %q", got.Name())
	}
	if _, err := reg.Lookup("nope"); err == nil {
		t.Fatal("lookup of unknown type must fail")
	}
}

// TestGridElementAccessDoesNotAllocate pins the escape analysis of
// the grid accessors: a caller's region.Point{x, y} literal must stay
// on its stack. The panic path used to hand the point to fmt, which
// moved every such literal to the heap — five mallocs per stencil
// cell on the path that never panics.
func TestGridElementAccessDoesNotAllocate(t *testing.T) {
	typ := NewGridType[float64]("alloc.grid", region.Point{8, 8})
	f := typ.NewFragment().(*GridFragment[float64])
	if err := f.Resize(typ.FullRegion()); err != nil {
		t.Fatal(err)
	}
	var sink float64
	allocs := testing.AllocsPerRun(100, func() {
		for x := 1; x < 7; x++ {
			for y := 1; y < 7; y++ {
				f.Set(region.Point{x, y}, float64(x*y))
				*f.Ptr(region.Point{x, y}) += 1
				sink += f.At(region.Point{x, y}) + f.At(region.Point{x - 1, y}) + f.At(region.Point{x, y + 1})
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("element access allocates %.1f times per sweep, want 0 (sink %v)", allocs, sink)
	}
	// The cold path still names the point.
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "(9,9)") {
			t.Fatalf("out-of-fragment access panicked with %q, want the point named", msg)
		}
	}()
	f.At(region.Point{9, 9})
}
