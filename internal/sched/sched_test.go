package sched

import (
	"fmt"
	"sync"
	"testing"

	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/region"
	"allscale/internal/runtime"
	"allscale/internal/wire"
)

// cluster bundles a runtime system with managers and schedulers.
type cluster struct {
	sys    *runtime.System
	scheds []*Scheduler
}

// newCluster builds n localities with the given number of workers
// each. Its cleanup waits for the workers: a test that holds one inside
// a task registers the release after this call, so that it runs first.
func newCluster(t testing.TB, n, workers int, policy Policy, types ...dataitem.Type) *cluster {
	t.Helper()
	sys := runtime.NewSystem(n)
	c := &cluster{sys: sys}
	for i := 0; i < n; i++ {
		reg := dataitem.NewRegistry()
		for _, typ := range types {
			reg.MustRegister(typ)
		}
		mgr := dim.New(sys.Locality(i), reg)
		c.scheds = append(c.scheds, New(sys.Locality(i), mgr, policy, workers))
	}
	t.Cleanup(func() {
		for _, s := range c.scheds {
			s.StopQueue()
		}
		sys.Close()
	})
	return c
}

// registerAll registers a kind on every scheduler.
func (c *cluster) registerAll(mk func(rank int) *Kind) {
	for i, s := range c.scheds {
		s.Register(mk(i))
	}
}

func (c *cluster) start() { c.sys.Start() }

// counter reads one of the scheduler's counters from its locality's
// registry.
func counter(s *Scheduler, name string) uint64 { return s.loc.Metrics().CounterValue(name) }

// sumRange is a prec-style divisible task: sum the integers of
// [Lo, Hi).
type sumRange struct{ Lo, Hi int64 }

func (r *sumRange) AppendWire(buf []byte) ([]byte, error) {
	return wire.AppendVarint(wire.AppendVarint(buf, r.Lo), r.Hi), nil
}

func (r *sumRange) UnmarshalWire(d *wire.Decoder) error {
	r.Lo, r.Hi = d.Varint(), d.Varint()
	return nil
}

func registerSum(c *cluster) {
	c.registerAll(func(rank int) *Kind {
		return &Kind{
			Name: "sum",
			CanSplit: func(args []byte) bool {
				var r sumRange
				wire.Decode(args, &r)
				return r.Hi-r.Lo > 4
			},
			Split: func(ctx *Ctx) (any, error) {
				var r sumRange
				if err := ctx.Args(&r); err != nil {
					return nil, err
				}
				mid := (r.Lo + r.Hi) / 2
				lb, rb, err := ctx.Fork("sum", &sumRange{r.Lo, mid}, &sumRange{mid, r.Hi})
				if err != nil {
					return nil, err
				}
				var a, b int64
				if err := wire.Decode(lb, &a); err != nil {
					return nil, err
				}
				if err := wire.Decode(rb, &b); err != nil {
					return nil, err
				}
				return a + b, nil
			},
			Process: func(ctx *Ctx) (any, error) {
				var r sumRange
				if err := ctx.Args(&r); err != nil {
					return nil, err
				}
				var s int64
				for i := r.Lo; i < r.Hi; i++ {
					s += i
				}
				return s, nil
			},
		}
	})
}

func TestRecursiveTaskTreeAcrossLocalities(t *testing.T) {
	c := newCluster(t, 4, 2, &DefaultPolicy{ExtraDepth: 2})
	registerSum(c)
	c.start()

	fut, err := c.scheds[0].Spawn("sum", &sumRange{0, 1000})
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	if err := fut.WaitInto(&got); err != nil {
		t.Fatal(err)
	}
	if want := int64(999 * 1000 / 2); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	// The task tree must have spread: some work executed remotely.
	remote := uint64(0)
	for i := 1; i < 4; i++ {
		remote += counter(c.scheds[i], MetricExecuted)
	}
	if remote == 0 {
		t.Fatal("no task executed on a remote locality")
	}
}

func TestSequentialVariantOnly(t *testing.T) {
	c := newCluster(t, 2, 2, &DefaultPolicy{})
	c.registerAll(func(rank int) *Kind {
		return &Kind{
			Name:    "answer",
			Process: func(ctx *Ctx) (any, error) { return 42, nil },
		}
	})
	c.start()
	fut, err := c.scheds[1].Spawn("answer", struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	var v int
	if err := fut.WaitInto(&v); err != nil || v != 42 {
		t.Fatalf("v=%d err=%v", v, err)
	}
}

func TestTaskErrorPropagatesThroughFuture(t *testing.T) {
	c := newCluster(t, 2, 2, &DefaultPolicy{})
	c.registerAll(func(rank int) *Kind {
		return &Kind{
			Name:    "bad",
			Process: func(ctx *Ctx) (any, error) { return nil, fmt.Errorf("task failed on rank %d", rank) },
		}
	})
	c.start()
	fut, err := c.scheds[0].Spawn("bad", struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err == nil {
		t.Fatal("task error must surface through the future")
	}
}

func TestUnknownKindFails(t *testing.T) {
	c := newCluster(t, 1, 2, &DefaultPolicy{})
	c.registerAll(func(rank int) *Kind {
		return &Kind{Name: "known", Process: func(ctx *Ctx) (any, error) { return nil, nil }}
	})
	c.start()
	if _, err := c.scheds[0].Spawn("unknown", struct{}{}); err == nil {
		t.Fatal("spawn of unknown kind must fail")
	}
}

// writeRange tasks write disjoint bands of a grid item; the test then
// checks data-aware placement of follow-up tasks.
type bandArgs struct{ Band int }

func (a *bandArgs) AppendWire(buf []byte) ([]byte, error) {
	return wire.AppendVarint(buf, int64(a.Band)), nil
}

func (a *bandArgs) UnmarshalWire(d *wire.Decoder) error {
	a.Band = d.Int()
	return nil
}

func bandRegion(band int) dataitem.GridRegion {
	return dataitem.GridRegionFromTo(region.Point{band * 4, 0}, region.Point{band*4 + 4, 16})
}

func TestDataAwarePlacementFollowsData(t *testing.T) {
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

	// Pre-place band i at rank i by direct acquisition.
	for i := 0; i < 4; i++ {
		if err := c.scheds[i].Manager().Acquire(uint64(900+i), []dim.Requirement{
			{Item: item, Region: bandRegion(i), Mode: dim.Write},
		}); err != nil {
			t.Fatal(err)
		}
		c.scheds[i].Manager().Release(uint64(900 + i))
	}

	// Spawning all band tasks from rank 0: Algorithm 2 must route each
	// to the rank covering its write requirement, not round-robin.
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
	for band := 0; band < 4; band++ {
		got, ok := execRanks.Load(band)
		if !ok || got.(int) != band {
			t.Fatalf("band %d executed on rank %v, want %d", band, got, band)
		}
	}
	// All placements must have been requirement-covered.
	if covered := counter(c.scheds[0], MetricCoveredAll) + counter(c.scheds[0], MetricCoveredWrite); covered < 4 {
		t.Fatalf("%d covered placements: not data-aware", covered)
	}
}

func TestFirstTouchSpreadsData(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", region.Point{64, 8})
	c := newCluster(t, 4, 2, &DefaultPolicy{ExtraDepth: 1}, typ)

	var item dim.ItemID
	c.registerAll(func(rank int) *Kind {
		return &Kind{
			Name: "init",
			CanSplit: func(args []byte) bool {
				var r sumRange
				wire.Decode(args, &r)
				return r.Hi-r.Lo > 8
			},
			Split: func(ctx *Ctx) (any, error) {
				var r sumRange
				ctx.Args(&r)
				mid := (r.Lo + r.Hi) / 2
				_, _, err := ctx.Fork("init", &sumRange{r.Lo, mid}, &sumRange{mid, r.Hi})
				return nil, err
			},
			Reqs: func(args []byte) []dim.Requirement {
				var r sumRange
				wire.Decode(args, &r)
				return []dim.Requirement{{
					Item:   item,
					Region: dataitem.GridRegionFromTo(region.Point{int(r.Lo), 0}, region.Point{int(r.Hi), 8}),
					Mode:   dim.Write,
				}}
			},
			Process: func(ctx *Ctx) (any, error) { return nil, nil },
		}
	})
	c.start()

	var err error
	item, err = c.scheds[0].Manager().CreateItem(typ)
	if err != nil {
		t.Fatal(err)
	}
	fut, err := c.scheds[0].Spawn("init", &sumRange{0, 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}

	// Every rank must have received a share of the item (even data
	// distribution through initialization spreading).
	withData := 0
	for i := 0; i < 4; i++ {
		cov, err := c.scheds[i].Manager().Coverage(item)
		if err != nil {
			t.Fatal(err)
		}
		if !cov.IsEmpty() {
			withData++
		}
	}
	if withData < 3 {
		t.Fatalf("data spread over only %d of 4 ranks", withData)
	}
}

func TestPolicyTargetMapping(t *testing.T) {
	p := &DefaultPolicy{}
	// Depth-2 paths over 4 ranks: 00->0, 01->1, 10->2, 11->3.
	for path, want := range map[uint64]int{0: 0, 1: 1, 2: 2, 3: 3} {
		spec := &TaskSpec{Path: path, PathLen: 2}
		if got := p.PickTarget(spec, 4); got != want {
			t.Errorf("path %02b -> rank %d, want %d", path, got, want)
		}
	}
	// Root goes to its origin.
	if got := p.PickTarget(&TaskSpec{Origin: 3}, 4); got != 3 {
		t.Errorf("root target = %d, want 3", got)
	}
	// Deep paths stay in range.
	spec := &TaskSpec{Path: (1 << 40) - 1, PathLen: 40}
	if got := p.PickTarget(spec, 6); got < 0 || got >= 6 {
		t.Errorf("deep path target %d out of range", got)
	}
}

func TestPolicyVariantDecision(t *testing.T) {
	p := &DefaultPolicy{ExtraDepth: 1}
	// 8 ranks: split through depth log2(8)+1-1 = 3.
	for depth := 0; depth < 4; depth++ {
		if v := p.PickVariant(&TaskSpec{Depth: depth}, true, 8); v != VariantSplit {
			t.Errorf("depth %d: variant %v, want split", depth, v)
		}
	}
	if v := p.PickVariant(&TaskSpec{Depth: 4}, true, 8); v != VariantProcess {
		t.Error("depth 4 must process")
	}
	if v := p.PickVariant(&TaskSpec{Depth: 0}, false, 8); v != VariantProcess {
		t.Error("unsplittable task must process")
	}
}

func TestRoundRobinPolicyStaysInRange(t *testing.T) {
	rr := &RoundRobinPolicy{}
	counts := map[int]int{}
	for i := 0; i < 100; i++ {
		a := rr.PickTarget(&TaskSpec{}, 5)
		if a < 0 || a >= 5 {
			t.Fatalf("target out of range: %d", a)
		}
		counts[a]++
	}
	for rank := 0; rank < 5; rank++ {
		if counts[rank] == 0 {
			t.Fatalf("round robin never chose rank %d", rank)
		}
	}
}

func TestSchedulerStatsAccounting(t *testing.T) {
	c := newCluster(t, 2, 2, &DefaultPolicy{ExtraDepth: 1})
	registerSum(c)
	c.start()
	fut, err := c.scheds[0].Spawn("sum", &sumRange{0, 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fut.Wait(); err != nil {
		t.Fatal(err)
	}
	spawned, executed := c.sumCounter(MetricSpawned), c.sumCounter(MetricExecuted)
	if spawned == 0 || executed != spawned {
		t.Fatalf("spawned %d tasks, executed %d", spawned, executed)
	}
	if c.sumCounter(MetricSplits) == 0 {
		t.Fatal("no split variant executed")
	}
}

func TestAdaptivePolicyVariantSelection(t *testing.T) {
	p := &AdaptivePolicy{BaseExtraDepth: 1, MaxExtraDepth: 2, LowLoad: 3}
	load := int64(0) // the queue depth, with no worker parked
	p.BindQueueSignals(func() int64 { return load }, func() int64 { return 0 })

	// Within the guaranteed depth: always split (8 ranks -> depth < 4).
	if v := p.PickVariant(&TaskSpec{Depth: 3}, true, 8); v != VariantSplit {
		t.Fatal("guaranteed depth must split")
	}
	// Beyond it: split only while starved.
	load = 0
	if v := p.PickVariant(&TaskSpec{Depth: 4}, true, 8); v != VariantSplit {
		t.Fatal("starved locality must keep splitting")
	}
	load = 10
	if v := p.PickVariant(&TaskSpec{Depth: 4}, true, 8); v != VariantProcess {
		t.Fatal("loaded locality must stop splitting")
	}
	// Hard ceiling.
	load = 0
	if v := p.PickVariant(&TaskSpec{Depth: 6}, true, 8); v != VariantProcess {
		t.Fatal("max extra depth must cap splitting")
	}
	if v := p.PickVariant(&TaskSpec{Depth: 0}, false, 8); v != VariantProcess {
		t.Fatal("unsplittable must process")
	}
}

func TestAdaptivePolicyEndToEnd(t *testing.T) {
	c := newCluster(t, 2, 2, NewAdaptivePolicy())
	registerSum(c)
	c.start()
	fut, err := c.scheds[0].Spawn("sum", &sumRange{0, 500})
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	if err := fut.WaitInto(&got); err != nil {
		t.Fatal(err)
	}
	if want := int64(499 * 500 / 2); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}
