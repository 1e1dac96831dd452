package sched

import (
	"sync"
	"testing"

	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/region"
	"allscale/internal/runtime"
	"allscale/internal/wire"
)

// sumCounter sums one metrics counter across every locality.
func (c *cluster) sumCounter(name string) uint64 {
	var n uint64
	for r := 0; r < c.sys.Size(); r++ {
		n += c.sys.Locality(r).Metrics().CounterValue(name)
	}
	return n
}

// TestCoveredPlacementZeroLocateRPCs is the PR's acceptance-criteria
// assertion: on a 4-locality system with a stable distribution,
// steady-state repeated placement of requirement-covered tasks
// performs ZERO dim index RPCs — every resolution is served by the
// locate cache, and every write acquisition by the local exclusive-
// ownership proof.
func TestCoveredPlacementZeroLocateRPCs(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", region.Point{16, 16})
	c := newCluster(t, 4, 2, &RoundRobinPolicy{}, typ)

	var item dim.ItemID
	var execRanks sync.Map
	c.registerAll(func(rank int) *Kind {
		return &Kind{
			Name: "touch",
			Reqs: func(args []byte) []dim.Requirement {
				var a bandArgs
				wire.Decode(args, &a)
				return []dim.Requirement{{Item: item, Region: bandRegion(a.Band), Mode: dim.Write}}
			},
			Process: func(ctx *Ctx) (any, error) {
				var a bandArgs
				ctx.Args(&a)
				execRanks.Store(a.Band, ctx.Rank())
				return nil, nil
			},
		}
	})
	c.start()

	var err error
	item, err = c.scheds[0].Manager().CreateItem(typ)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := c.scheds[i].Manager().Acquire(uint64(900+i), []dim.Requirement{
			{Item: item, Region: bandRegion(i), Mode: dim.Write},
		}); err != nil {
			t.Fatal(err)
		}
		c.scheds[i].Manager().Release(uint64(900 + i))
	}

	spawnAll := func() {
		t.Helper()
		var futs []*runtime.Future
		for i := 0; i < 4; i++ {
			fut, err := c.scheds[0].Spawn("touch", &bandArgs{Band: i})
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, fut)
		}
		for _, f := range futs {
			if _, err := f.Wait(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Warm round: fills rank 0's locate cache and re-proves exclusive
	// ownership at the executing ranks.
	spawnAll()

	rpcs := c.sumCounter(dim.MetricLocateRPCs)
	hits := c.sumCounter(dim.MetricLocateCacheHits)
	const rounds = 10
	for i := 0; i < rounds; i++ {
		spawnAll()
	}
	if d := c.sumCounter(dim.MetricLocateRPCs) - rpcs; d != 0 {
		t.Errorf("steady-state placements issued %d locate RPCs, want 0", d)
	}
	if d := c.sumCounter(dim.MetricLocateCacheHits) - hits; d < rounds*4 {
		t.Errorf("cache hits grew by %d, want >= %d", d, rounds*4)
	}
	for band := 0; band < 4; band++ {
		if got, ok := execRanks.Load(band); !ok || got.(int) != band {
			t.Fatalf("band %d executed on rank %v, want %d", band, got, band)
		}
	}
}

// scanArgs requests one fixed region; the tests below split ownership
// so no rank covers it and the percolation tier must decide.
type scanArgs struct{ V uint64 }

func (a *scanArgs) AppendWire(buf []byte) ([]byte, error) {
	return wire.AppendUvarint(buf, a.V), nil
}

func (a *scanArgs) UnmarshalWire(d *wire.Decoder) error {
	a.V = d.Uvarint()
	return nil
}

// TestPercolationShipsToMajorityOwner: the majority owner misses few
// elements while this rank misses many — shipping the task to the
// data is modelled cheaper, so the task executes at the majority
// owner and sched.percolate.to_data counts it.
func TestPercolationShipsToMajorityOwner(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", region.Point{64, 16})
	c := newCluster(t, 2, 2, &RoundRobinPolicy{}, typ)
	full := dataitem.GridRegionFromTo(region.Point{0, 0}, region.Point{64, 16})

	var item dim.ItemID
	execRank := make(chan int, 1)
	c.registerAll(func(rank int) *Kind {
		return &Kind{
			Name: "scan",
			Reqs: func(args []byte) []dim.Requirement {
				return []dim.Requirement{{Item: item, Region: full, Mode: dim.Read}}
			},
			Process: func(ctx *Ctx) (any, error) {
				execRank <- ctx.Rank()
				return nil, nil
			},
		}
	})
	c.start()

	var err error
	item, err = c.scheds[0].Manager().CreateItem(typ)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 0 owns 4x16 = 64 elements, rank 1 owns 60x16 = 960: the
	// 896-element gap dwarfs one task ship (13000ns vs 25ns/elem).
	place := func(rank int, r dataitem.GridRegion, tok uint64) {
		t.Helper()
		if err := c.scheds[rank].Manager().Acquire(tok, []dim.Requirement{
			{Item: item, Region: r, Mode: dim.Write},
		}); err != nil {
			t.Fatal(err)
		}
		c.scheds[rank].Manager().Release(tok)
	}
	place(0, dataitem.GridRegionFromTo(region.Point{0, 0}, region.Point{4, 16}), 901)
	place(1, dataitem.GridRegionFromTo(region.Point{4, 0}, region.Point{64, 16}), 902)

	fut, err := c.scheds[0].Spawn("scan", &scanArgs{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := <-execRank; got != 1 {
		t.Fatalf("task executed on rank %d, want majority owner 1", got)
	}
	if toData, toTask := counter(c.scheds[0], MetricPercolateToData), counter(c.scheds[0], MetricPercolateToTask); toData != 1 || toTask != 0 {
		t.Fatalf("percolation stats = to_data %d, to_task %d; want 1, 0", toData, toTask)
	}
}

// TestPercolationKeepsTaskWhenMigrationCheaper: the ownership gap is
// small, so pulling the difference costs less than one task ship —
// the task stays local and the data migrates to it.
func TestPercolationKeepsTaskWhenMigrationCheaper(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", region.Point{16, 16})
	c := newCluster(t, 2, 2, &RoundRobinPolicy{}, typ)
	full := dataitem.GridRegionFromTo(region.Point{0, 0}, region.Point{16, 16})

	var item dim.ItemID
	execRank := make(chan int, 1)
	c.registerAll(func(rank int) *Kind {
		return &Kind{
			Name: "scan",
			Reqs: func(args []byte) []dim.Requirement {
				return []dim.Requirement{{Item: item, Region: full, Mode: dim.Read}}
			},
			Process: func(ctx *Ctx) (any, error) {
				execRank <- ctx.Rank()
				return nil, nil
			},
		}
	})
	c.start()

	var err error
	item, err = c.scheds[0].Manager().CreateItem(typ)
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 owns 160 elements, rank 0 owns 96: the 64-element gap is
	// far below the ~520-element ship/migrate crossover of the default
	// cost constants, so local execution wins.
	place := func(rank int, r dataitem.GridRegion, tok uint64) {
		t.Helper()
		if err := c.scheds[rank].Manager().Acquire(tok, []dim.Requirement{
			{Item: item, Region: r, Mode: dim.Write},
		}); err != nil {
			t.Fatal(err)
		}
		c.scheds[rank].Manager().Release(tok)
	}
	place(1, dataitem.GridRegionFromTo(region.Point{0, 0}, region.Point{10, 16}), 901)
	place(0, dataitem.GridRegionFromTo(region.Point{10, 0}, region.Point{16, 16}), 902)

	fut, err := c.scheds[0].Spawn("scan", &scanArgs{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	if got := <-execRank; got != 0 {
		t.Fatalf("task executed on rank %d, want local rank 0", got)
	}
	if toData, toTask := counter(c.scheds[0], MetricPercolateToData), counter(c.scheds[0], MetricPercolateToTask); toTask != 1 || toData != 0 {
		t.Fatalf("percolation stats = to_data %d, to_task %d; want 0, 1", toData, toTask)
	}
}

// BenchmarkCoveredPlacement measures the fine-grained stencil-like
// placement hot path (E13): spawn-to-complete of requirement-covered
// band tasks from one rank, steady state, locate cache warm.
func BenchmarkCoveredPlacement(b *testing.B) {
	typ := dataitem.NewGridType[int]("field", region.Point{16, 16})
	c := newCluster(b, 4, 2, &RoundRobinPolicy{}, typ)

	var item dim.ItemID
	c.registerAll(func(rank int) *Kind {
		return &Kind{
			Name: "touch",
			Reqs: func(args []byte) []dim.Requirement {
				var a bandArgs
				wire.Decode(args, &a)
				return []dim.Requirement{{Item: item, Region: bandRegion(a.Band), Mode: dim.Write}}
			},
			Process: func(ctx *Ctx) (any, error) { return nil, nil },
		}
	})
	c.start()

	var err error
	item, err = c.scheds[0].Manager().CreateItem(typ)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := c.scheds[i].Manager().Acquire(uint64(900+i), []dim.Requirement{
			{Item: item, Region: bandRegion(i), Mode: dim.Write},
		}); err != nil {
			b.Fatal(err)
		}
		c.scheds[i].Manager().Release(uint64(900 + i))
	}
	// Warm the caches.
	for i := 0; i < 4; i++ {
		fut, err := c.scheds[0].Spawn("touch", &bandArgs{Band: i})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := fut.Wait(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	const window = 64
	futs := make([]*runtime.Future, 0, window)
	flush := func() {
		for _, f := range futs {
			if _, err := f.Wait(); err != nil {
				b.Fatal(err)
			}
		}
		futs = futs[:0]
	}
	for i := 0; i < b.N; i++ {
		fut, err := c.scheds[0].Spawn("touch", &bandArgs{Band: i % 4})
		if err != nil {
			b.Fatal(err)
		}
		futs = append(futs, fut)
		if len(futs) == window {
			flush()
		}
	}
	flush()
}
