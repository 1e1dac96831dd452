package balance

import (
	"testing"

	"allscale/internal/core"
	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/region"
	"allscale/internal/sched"
)

// skewedSystem builds a 4-locality system where rank 0 owns the whole
// grid — the worst-case imbalance.
func skewedSystem(t *testing.T) (*core.System, *core.Grid[int]) {
	t.Helper()
	sys := core.NewSystem(core.Config{Localities: 4})
	grid := core.DefineGrid[int](sys, "bal.grid", region.Point{64, 16})
	core.RegisterPFor(sys, core.PForSpec{
		Name:     "bal.touch",
		MinGrain: 64,
		Body: func(ctx *sched.Ctx, p region.Point, _ []byte) {
			g := grid.Local(ctx)
			g.Set(p, g.At(p)+1)
		},
		Reqs: func(r core.Range, _ []byte) []dim.Requirement {
			return []dim.Requirement{{Item: grid.Item(), Region: grid.Region(r.Lo, r.Hi), Mode: dim.Write}}
		},
	})
	sys.Start()
	t.Cleanup(func() { sys.Close() })
	if err := grid.Create(); err != nil {
		t.Fatal(err)
	}
	mgr := sys.Manager(0)
	full := dataitem.GridRegionFromTo(region.Point{0, 0}, region.Point{64, 16})
	if err := mgr.Acquire(1, []dim.Requirement{{Item: grid.Item(), Region: full, Mode: dim.Write}}); err != nil {
		t.Fatal(err)
	}
	frag, _ := mgr.Fragment(grid.Item())
	g := frag.(*dataitem.GridFragment[int])
	for x := 0; x < 64; x++ {
		for y := 0; y < 16; y++ {
			g.Set(region.Point{x, y}, x*1000+y)
		}
	}
	mgr.Release(1)
	return sys, grid
}

func imbalance(t *testing.T, sys *core.System, item dim.ItemID) float64 {
	t.Helper()
	covs, err := sys.CoverageByRank(item)
	if err != nil {
		t.Fatal(err)
	}
	var max, total int64
	for _, c := range covs {
		n := c.Size()
		total += n
		if n > max {
			max = n
		}
	}
	if total == 0 {
		return 0
	}
	return float64(max) / (float64(total) / float64(len(covs)))
}

func TestRebalanceEvensOutSkewedGrid(t *testing.T) {
	sys, grid := skewedSystem(t)
	if imb := imbalance(t, sys, grid.Item()); imb < 3.9 {
		t.Fatalf("setup not skewed: imbalance %v", imb)
	}
	moves, err := RebalanceGrid(sys, grid.Item(), Options{Tolerance: 1.2, MaxMoves: 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 {
		t.Fatal("no moves executed")
	}
	if imb := imbalance(t, sys, grid.Item()); imb > 1.3 {
		t.Fatalf("still imbalanced after rebalance: %v (moves: %d)", imb, len(moves))
	}
	// Data must be preserved bit-for-bit across migrations.
	err = grid.Read(grid.FullRegion(), func(f *dataitem.GridFragment[int]) {
		for x := 0; x < 64; x++ {
			for y := 0; y < 16; y++ {
				if got := f.At(region.Point{x, y}); got != x*1000+y {
					t.Fatalf("cell (%d,%d) = %d after rebalance", x, y, got)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRebalanceRedirectsFutureTasks(t *testing.T) {
	sys, grid := skewedSystem(t)
	if _, err := RebalanceGrid(sys, grid.Item(), Options{Tolerance: 1.2, MaxMoves: 32}); err != nil {
		t.Fatal(err)
	}
	// After migration, a pfor over the grid must be routed to the new
	// owners (Algorithm 2 lines 4–9), executing on several localities.
	before := make([]uint64, sys.Size())
	for i := range before {
		before[i] = sys.Metrics(i).CounterValue(sched.MetricExecuted)
	}
	if err := sys.PFor("bal.touch", region.Point{0, 0}, region.Point{64, 16}, nil); err != nil {
		t.Fatal(err)
	}
	active := 0
	for i := range before {
		if sys.Metrics(i).CounterValue(sched.MetricExecuted) > before[i] {
			active++
		}
	}
	if active < 3 {
		t.Fatalf("tasks executed on only %d localities after rebalancing", active)
	}
}

func TestRebalanceBalancedSystemIsNoop(t *testing.T) {
	sys, grid := skewedSystem(t)
	if _, err := RebalanceGrid(sys, grid.Item(), Options{Tolerance: 1.2, MaxMoves: 32}); err != nil {
		t.Fatal(err)
	}
	moves, err := RebalanceGrid(sys, grid.Item(), Options{Tolerance: 1.2, MaxMoves: 32})
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 0 {
		t.Fatalf("rebalancing a balanced system moved data: %v", moves)
	}
}

func TestRebalanceEmptyItem(t *testing.T) {
	sys := core.NewSystem(core.Config{Localities: 2})
	grid := core.DefineGrid[int](sys, "bal.empty", region.Point{8, 8})
	sys.Start()
	defer sys.Close()
	if err := grid.Create(); err != nil {
		t.Fatal(err)
	}
	moves, err := RebalanceGrid(sys, grid.Item(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 0 {
		t.Fatal("empty item must not be moved")
	}
}

func TestCarveGridTakesRequestedAmount(t *testing.T) {
	cov := dataitem.GridRegionFromTo(region.Point{0, 0}, region.Point{10, 10})
	slice := carveGrid(cov, 30)
	if got := slice.Size(); got < 30 || got > 40 {
		t.Fatalf("carved %d elements, want ~30 (row granularity)", got)
	}
	if !slice.Difference(cov).IsEmpty() {
		t.Fatal("carved region outside coverage")
	}
	// Carving more than available returns everything.
	all := carveGrid(cov, 1000)
	if !all.Equal(dataitem.Region(cov)) {
		t.Fatalf("over-carve = %v", all)
	}
}
