package dataitem

import (
	"math/rand"
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
	if n := len(f.state.Load().blocks); n != 2 {
		t.Fatalf("blocks = %d, want 2", n)
	}
	if f.Covers(p(5, 5)) {
		t.Fatal("gap must not be covered")
	}
}

func TestGridDenseBlocksAliasStorage(t *testing.T) {
	typ := NewGridType[int]("gridE", p(4, 4))
	f := typ.NewFragment().(*GridFragment[int])
	f.Resize(GridRegionFromTo(p(0, 0), p(4, 4)))
	row, ok := f.Row(p(1, 0), 4)
	if !ok || len(row) != 4 {
		t.Fatalf("row = %v, %v", row, ok)
	}
	row[1] = 77
	if got := f.At(p(1, 1)); got != 77 {
		t.Fatalf("dense write not visible: %d", got)
	}
}

// TestGridResizeKeepsUntouchedBlocks is the halo pattern of a stencil
// half: a band grows by a neighbour's row and loses it again. The band
// itself must stay where it is — same backing array — through both, and
// so must every element that any sequence of resizes leaves covered.
func TestGridResizeKeepsUntouchedBlocks(t *testing.T) {
	typ := NewGridType[float64]("gridF", p(8, 8))
	f := typ.NewFragment().(*GridFragment[float64])
	band := GridRegionFromTo(p(0, 0), p(4, 8))
	row := GridRegionFromTo(p(4, 1), p(5, 7))
	if err := f.Resize(band); err != nil {
		t.Fatal(err)
	}
	f.Set(p(3, 3), 7)
	bandData := f.Ptr(p(0, 0))

	if err := f.Resize(band.Union(row)); err != nil {
		t.Fatal(err)
	}
	if f.Ptr(p(0, 0)) != bandData {
		t.Fatal("growing by a halo row moved the band")
	}
	f.Set(p(4, 3), 9)
	old := f.Region()
	if err := f.Resize(old.Difference(row)); err != nil {
		t.Fatal(err)
	}
	if len(f.state.Load().blocks) != 1 || f.Ptr(p(0, 0)) != bandData {
		t.Fatal("dropping the halo row moved the band")
	}
	if f.At(p(3, 3)) != 7 || f.Covers(p(4, 3)) {
		t.Fatal("resize lost the band's data or kept the dropped row")
	}

	// Any sequence of grows and shrinks: an element that stays covered
	// keeps its address and its value; one that comes (back) in is zero.
	rng := rand.New(rand.NewSource(21))
	randBox := func() GridRegion {
		x0, y0 := rng.Intn(7), rng.Intn(7)
		return GridRegionFromTo(p(x0, y0), p(x0+1+rng.Intn(8-x0), y0+1+rng.Intn(8-y0)))
	}
	for step := 0; step < 200; step++ {
		before := f.Region().(GridRegion)
		addr := make(map[[2]int]*float64)
		before.B.ForEachPoint(func(q region.Point) {
			f.Set(q, float64(step*100+q[0]*8+q[1]))
			addr[[2]int{q[0], q[1]}] = f.Ptr(q)
		})
		var target Region
		if rng.Intn(2) == 0 {
			target = before.Union(randBox())
		} else {
			target = before.Difference(randBox())
		}
		if err := f.Resize(target); err != nil {
			t.Fatal(err)
		}
		target.(GridRegion).B.ForEachPoint(func(q region.Point) {
			was, kept := addr[[2]int{q[0], q[1]}]
			switch {
			case !kept && f.At(q) != 0:
				t.Fatalf("step %d: new element %v = %v, want 0", step, q, f.At(q))
			case kept && f.Ptr(q) != was:
				t.Fatalf("step %d: resize moved covered element %v", step, q)
			case kept && f.At(q) != float64(step*100+q[0]*8+q[1]):
				t.Fatalf("step %d: resize changed covered element %v", step, q)
			}
		})
	}
}

// TestGridWritersSurviveResizes is exclusive writes at the storage
// level: tasks write their own regions while the manager resizes the
// fragment around them. No write may be lost, and the race detector
// must stay silent.
func TestGridWritersSurviveResizes(t *testing.T) {
	const n, writers, rounds = 32, 4, 300
	typ := NewGridType[int]("gridG", p(n, n))
	f := typ.NewFragment().(*GridFragment[int])
	// Writer w owns rows [8w, 8w+4); the rows between come and go.
	kept := func(w int) GridRegion { return GridRegionFromTo(p(8*w, 0), p(8*w+4, n)) }
	var base Region = GridRegion{}
	for w := 0; w < writers; w++ {
		base = base.Union(kept(w))
	}
	if err := f.Resize(base); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			// A grow by a box that overlaps a writer's rows — listed first,
			// so the union cuts the writer's band into slabs around it —
			// then a shrink back.
			x0 := 8*rng.Intn(writers) + 1 + rng.Intn(3)
			extra := GridRegionFromTo(p(x0, rng.Intn(n/2)), p(x0+4, n/2+rng.Intn(n/2)+1))
			if err := f.Resize(extra.Union(base)); err != nil {
				t.Error(err)
				return
			}
			if err := f.Resize(base); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var writing sync.WaitGroup
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for round := 1; round <= rounds; round++ {
				for x := 8 * w; x < 8*w+4; x++ {
					// A row the resizes have cut up goes point by point.
					if row, ok := f.Row(p(x, 0), n); ok {
						for y := range row {
							row[y] = round
						}
						continue
					}
					for y := 0; y < n; y++ {
						f.Set(p(x, y), round)
					}
				}
				for x := 8 * w; x < 8*w+4; x++ {
					for y := 0; y < n; y++ {
						if got := f.At(p(x, y)); got != round {
							t.Errorf("writer %d round %d: (%d,%d) = %d", w, round, x, y, got)
							return
						}
					}
				}
			}
		}(w)
	}
	writing.Wait()
	close(stop)
	wg.Wait()
}

// TestGridRowContract: a row aliases the fragment's storage, and is
// refused when it leaves the block it starts in or the cover.
func TestGridRowContract(t *testing.T) {
	t.Run("2d", func(t *testing.T) {
		typ := NewGridType[int]("gridH", p(8, 8))
		f := typ.NewFragment().(*GridFragment[int])
		// Two blocks side by side and one below them.
		for _, r := range []Region{
			GridRegionFromTo(p(0, 0), p(4, 4)),
			GridRegionFromTo(p(0, 0), p(4, 4)).Union(GridRegionFromTo(p(0, 4), p(4, 8))),
			GridRegionFromTo(p(0, 0), p(4, 8)).Union(GridRegionFromTo(p(4, 2), p(5, 6))),
		} {
			if err := f.Resize(r); err != nil {
				t.Fatal(err)
			}
		}
		row, ok := f.Row(p(2, 1), 3)
		if !ok || len(row) != 3 || cap(row) != 3 {
			t.Fatalf("row = %v (cap %d), %v", row, cap(row), ok)
		}
		row[0], row[2] = 5, 6
		f.Set(p(2, 2), 7)
		if f.At(p(2, 1)) != 5 || row[1] != 7 || f.At(p(2, 3)) != 6 || &row[1] != f.Ptr(p(2, 2)) {
			t.Fatal("row does not alias the fragment's storage")
		}
		if _, ok := f.Row(p(2, 4), 4); !ok {
			t.Fatal("a whole row of the second block refused")
		}
		if _, ok := f.Row(p(4, 2), 4); !ok {
			t.Fatal("the halo row refused")
		}
		if _, ok := f.Row(p(2, 4), 0); !ok {
			t.Fatal("an empty row at a covered point refused")
		}
		for _, bad := range []struct {
			at region.Point
			n  int
		}{
			{p(2, 2), 4},  // crosses the edge between the two blocks
			{p(4, 2), 5},  // runs off the halo row and the cover
			{p(4, 0), 2},  // starts outside the cover
			{p(5, 2), 1},  // outside entirely
			{p(2, 2), -1}, // no such row
		} {
			if row, ok := f.Row(bad.at, bad.n); ok {
				t.Fatalf("Row(%v, %d) = %v, want refusal", bad.at, bad.n, row)
			}
		}
		// A shrink keeps the row's storage; what is cut off is refused.
		if err := f.Resize(GridRegionFromTo(p(2, 0), p(4, 3))); err != nil {
			t.Fatal(err)
		}
		if again, ok := f.Row(p(2, 1), 2); !ok || &again[0] != &row[0] {
			t.Fatal("shrinking moved a covered row")
		}
		if _, ok := f.Row(p(2, 1), 3); ok {
			t.Fatal("row reaches past the shrunk block")
		}
	})
	t.Run("1d", func(t *testing.T) {
		typ := NewGridType[int]("gridI", region.Point{16})
		f := typ.NewFragment().(*GridFragment[int])
		f.Resize(GridRegionFromTo(region.Point{2}, region.Point{6}))
		f.Resize(GridRegionFromTo(region.Point{2}, region.Point{10}))
		row, ok := f.Row(region.Point{3}, 3)
		if !ok {
			t.Fatal("1-d row refused")
		}
		row[2] = 9
		if f.At(region.Point{5}) != 9 {
			t.Fatal("1-d row does not alias")
		}
		if _, ok := f.Row(region.Point{4}, 4); ok {
			t.Fatal("1-d row across two allocations")
		}
		if _, ok := f.Row(region.Point{8}, 3); ok {
			t.Fatal("1-d row beyond the cover")
		}
	})
	t.Run("3d", func(t *testing.T) {
		typ := NewGridType[int]("gridJ", region.Point{4, 4, 4})
		f := typ.NewFragment().(*GridFragment[int])
		f.Resize(GridRegionFromTo(region.Point{1, 0, 0}, region.Point{3, 4, 4}))
		row, ok := f.Row(region.Point{2, 3, 1}, 3)
		if !ok {
			t.Fatal("3-d row refused")
		}
		for i := range row {
			row[i] = 10 + i
		}
		for i := 0; i < 3; i++ {
			if got := f.At(region.Point{2, 3, 1 + i}); got != 10+i {
				t.Fatalf("(2,3,%d) = %d", 1+i, got)
			}
		}
		if f.At(region.Point{2, 3, 0}) != 0 || f.At(region.Point{2, 2, 3}) != 0 {
			t.Fatal("3-d row wrote outside itself")
		}
		if _, ok := f.Row(region.Point{2, 3, 2}, 3); ok {
			t.Fatal("3-d row wraps into the next line")
		}
		if _, ok := f.Row(region.Point{0, 0, 0}, 1); ok {
			t.Fatal("3-d row outside the cover")
		}
	})
}

// TestTreeRefContract: Ref hands out the node's payload slot itself — a
// Resize that keeps the node keeps the pointer, what is written through
// it is what At and Extract read, and a node outside the cover panics
// as it does for At.
func TestTreeRefContract(t *testing.T) {
	const height = 4
	typ := NewTreeType[int]("treeR", height)
	f := typ.NewFragment().(*TreeFragment[int])
	left := TreeItemRegion{T: region.SubtreeRegion(height, 2)}
	if err := f.Resize(left); err != nil {
		t.Fatal(err)
	}
	ref := f.Ref(5)
	*ref = 50
	if f.At(5) != 50 {
		t.Fatal("a write through Ref is not what At reads")
	}
	f.Set(5, 51)
	if *ref != 51 {
		t.Fatal("Ref does not alias the slot Set writes")
	}
	// Grow to the whole tree, then shrink to node 5's own subtree: the
	// node is covered throughout.
	for _, r := range []Region{typ.FullRegion(), TreeItemRegion{T: region.SubtreeRegion(height, 5)}} {
		if err := f.Resize(r); err != nil {
			t.Fatal(err)
		}
		if f.Ref(5) != ref {
			t.Fatalf("resize to %v moved a covered node's slot", r)
		}
	}
	*ref = 52
	data, err := f.Extract(TreeItemRegion{T: region.SingleNodeRegion(height, 5)})
	if err != nil {
		t.Fatal(err)
	}
	g := typ.NewFragment().(*TreeFragment[int])
	g.Resize(typ.FullRegion())
	if _, err := g.Insert(data); err != nil {
		t.Fatal(err)
	}
	if g.At(5) != 52 {
		t.Fatalf("Extract read %d, want the 52 written through Ref", g.At(5))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Ref outside the cover did not panic")
		}
	}()
	f.Ref(4)
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

func TestRegionTypeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("cross-type union must panic")
		}
	}()
	GridRegionFromTo(p(0), p(1)).Union(TreeItemRegion{T: region.FullTreeRegion(2)})
}

func TestRegionEqualAcrossTypesIsFalse(t *testing.T) {
	if GridRegionFromTo(p(0), p(1)).Equal(TreeItemRegion{T: region.FullTreeRegion(1)}) {
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
