package core

import (
	"math"
	goruntime "runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/region"
	"allscale/internal/runtime"
	"allscale/internal/sched"
	"allscale/internal/transport"
)

func TestGridLifecycleAndPFor(t *testing.T) {
	sys := NewSystem(Config{Localities: 4})
	defer sys.Close()

	grid := DefineGrid[float64](sys, "field", region.Point{64, 64})
	RegisterPFor(sys, PForSpec{
		Name:     "init",
		MinGrain: 256,
		Body: func(ctx *sched.Ctx, p region.Point, _ []byte) {
			grid.Local(ctx).Set(p, float64(p[0]*64+p[1]))
		},
		Reqs: func(r Range, _ []byte) []dim.Requirement {
			return []dim.Requirement{{
				Item:   grid.Item(),
				Region: grid.Region(r.Lo, r.Hi),
				Mode:   dim.Write,
			}}
		},
	})
	sys.Start()
	if err := grid.Create(); err != nil {
		t.Fatal(err)
	}

	if err := sys.PFor("init", region.Point{0, 0}, region.Point{64, 64}, nil); err != nil {
		t.Fatal(err)
	}

	// All elements must be initialized and distributed.
	var sum float64
	err := grid.Read(grid.FullRegion(), func(f *dataitem.GridFragment[float64]) {
		Range{Lo: region.Point{0, 0}, Hi: region.Point{64, 64}}.ForEach(func(p region.Point) {
			sum += f.At(p)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(64*64-1) * float64(64*64) / 2
	if sum != want {
		t.Fatalf("sum = %v, want %v", sum, want)
	}

	// Data must be spread over multiple localities by first touch.
	covs, err := sys.CoverageByRank(grid.Item())
	if err != nil {
		t.Fatal(err)
	}
	nonEmpty := 0
	var total int64
	for _, cov := range covs {
		if !cov.IsEmpty() {
			nonEmpty++
		}
	}
	// Total primary coverage equals the grid (replicas from Read add
	// to rank 0's coverage, so sum >= full size).
	for _, cov := range covs {
		total += cov.Size()
	}
	if nonEmpty < 2 {
		t.Fatalf("grid held by only %d localities", nonEmpty)
	}
	if total < 64*64 {
		t.Fatalf("coverage sums to %d, want >= %d", total, 64*64)
	}

	if err := grid.Destroy(); err != nil {
		t.Fatal(err)
	}
}

func TestPForExtraPayloadSelectsBuffers(t *testing.T) {
	sys := NewSystem(Config{Localities: 2})
	defer sys.Close()

	a := DefineGrid[int](sys, "A", region.Point{32})
	b := DefineGrid[int](sys, "B", region.Point{32})
	grids := []*Grid[int]{a, b}

	RegisterPFor(sys, PForSpec{
		Name:     "copyshift",
		MinGrain: 8,
		Body: func(ctx *sched.Ctx, p region.Point, extra []byte) {
			src, dst := grids[extra[0]], grids[1-extra[0]]
			dst.Local(ctx).Set(p, src.Local(ctx).At(p)+1)
		},
		Reqs: func(r Range, extra []byte) []dim.Requirement {
			src, dst := grids[extra[0]], grids[1-extra[0]]
			return []dim.Requirement{
				{Item: src.Item(), Region: src.Region(r.Lo, r.Hi), Mode: dim.Read},
				{Item: dst.Item(), Region: dst.Region(r.Lo, r.Hi), Mode: dim.Write},
			}
		},
	})
	RegisterPFor(sys, PForSpec{
		Name:     "zero",
		MinGrain: 8,
		Body: func(ctx *sched.Ctx, p region.Point, _ []byte) {
			a.Local(ctx).Set(p, 0)
		},
		Reqs: func(r Range, _ []byte) []dim.Requirement {
			return []dim.Requirement{{Item: a.Item(), Region: a.Region(r.Lo, r.Hi), Mode: dim.Write}}
		},
	})
	sys.Start()
	if err := a.Create(); err != nil {
		t.Fatal(err)
	}
	if err := b.Create(); err != nil {
		t.Fatal(err)
	}

	if err := sys.PFor("zero", region.Point{0}, region.Point{32}, nil); err != nil {
		t.Fatal(err)
	}
	// Two ping-pong steps: A -> B (+1), B -> A (+1).
	if err := sys.PFor("copyshift", region.Point{0}, region.Point{32}, []byte{0}); err != nil {
		t.Fatal(err)
	}
	if err := sys.PFor("copyshift", region.Point{0}, region.Point{32}, []byte{1}); err != nil {
		t.Fatal(err)
	}

	err := a.Read(a.FullRegion(), func(f *dataitem.GridFragment[int]) {
		for i := 0; i < 32; i++ {
			if got := f.At(region.Point{i}); got != 2 {
				t.Fatalf("A[%d] = %d, want 2", i, got)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRangeSplitAndVolume(t *testing.T) {
	r := Range{Lo: region.Point{0, 0}, Hi: region.Point{10, 4}}
	if r.Volume() != 40 {
		t.Fatalf("volume = %d", r.Volume())
	}
	l, rr := r.Split()
	if l.Volume()+rr.Volume() != 40 {
		t.Fatalf("split volumes %d + %d != 40", l.Volume(), rr.Volume())
	}
	// Split must cut the widest dimension (x, extent 10).
	if l.Hi[0] != 5 || rr.Lo[0] != 5 {
		t.Fatalf("split at %v / %v, want x=5", l, rr)
	}
	empty := Range{Lo: region.Point{3}, Hi: region.Point{3}}
	if empty.Volume() != 0 {
		t.Fatal("empty range must have volume 0")
	}
	count := 0
	empty.ForEach(func(region.Point) { count++ })
	if count != 0 {
		t.Fatal("ForEach over empty range must not iterate")
	}
}

func TestRangeForEachOrder(t *testing.T) {
	r := Range{Lo: region.Point{1, 1}, Hi: region.Point{3, 3}}
	var got []string
	r.ForEach(func(p region.Point) { got = append(got, p.String()) })
	want := []string{"(1,1)", "(1,2)", "(2,1)", "(2,2)"}
	if len(got) != len(want) {
		t.Fatalf("iterated %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestWaitDecodesResult(t *testing.T) {
	sys := NewSystem(Config{Localities: 2})
	sys.RegisterKind(func(rank int) *sched.Kind {
		return &sched.Kind{
			Name:    "mul",
			Process: func(ctx *sched.Ctx) (any, error) { var x int; ctx.Args(&x); return x * 3, nil },
		}
	})
	sys.Start()
	defer sys.Close()
	var out int
	if err := sys.Wait("mul", 7, &out); err != nil {
		t.Fatal(err)
	}
	if out != 21 {
		t.Fatalf("out = %d", out)
	}
	if err := sys.Wait("mul", 1, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSystemStatsExposed(t *testing.T) {
	sys := NewSystem(Config{Localities: 2})
	grid := DefineGrid[int](sys, "g", region.Point{16})
	RegisterPFor(sys, PForSpec{
		Name:     "touch",
		MinGrain: 4,
		Body:     func(ctx *sched.Ctx, p region.Point, _ []byte) { grid.Local(ctx).Set(p, 1) },
		Reqs: func(r Range, _ []byte) []dim.Requirement {
			return []dim.Requirement{{Item: grid.Item(), Region: grid.Region(r.Lo, r.Hi), Mode: dim.Write}}
		},
	})
	sys.Start()
	defer sys.Close()
	if err := grid.Create(); err != nil {
		t.Fatal(err)
	}
	if err := sys.PFor("touch", region.Point{0}, region.Point{16}, nil); err != nil {
		t.Fatal(err)
	}
	if sys.CounterSum(sched.MetricExecuted) == 0 {
		t.Fatal("no executions recorded")
	}
	if sys.CounterSum(transport.MetricMsgsSent) == 0 {
		t.Fatal("no messages recorded")
	}
}

// TestWorkersModeRunsPForCorrectly runs a write-requirement pfor with an
// explicit pool size, two workers on each of three localities.
func TestWorkersModeRunsPForCorrectly(t *testing.T) {
	sys := NewSystem(Config{Localities: 3, Workers: 2})
	defer sys.Close()
	grid := DefineGrid[int](sys, "wq.grid", region.Point{48, 8})
	RegisterPFor(sys, PForSpec{
		Name:     "wq.init",
		MinGrain: 32,
		Body: func(ctx *sched.Ctx, p region.Point, _ []byte) {
			grid.Local(ctx).Set(p, p[0]+p[1])
		},
		Reqs: func(r Range, _ []byte) []dim.Requirement {
			return []dim.Requirement{{Item: grid.Item(), Region: grid.Region(r.Lo, r.Hi), Mode: dim.Write}}
		},
	})
	sys.Start()
	if err := grid.Create(); err != nil {
		t.Fatal(err)
	}
	if err := sys.PFor("wq.init", region.Point{0, 0}, region.Point{48, 8}, nil); err != nil {
		t.Fatal(err)
	}
	sum, want := 0, 0
	err := grid.Read(grid.FullRegion(), func(f *dataitem.GridFragment[int]) {
		for x := 0; x < 48; x++ {
			for y := 0; y < 8; y++ {
				sum += f.At(region.Point{x, y})
				want += x + y
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

// TestWorkersModeQueueDrains: with one worker per locality, a chain of
// dependent root tasks leaves no rank's run queue occupied.
func TestWorkersModeQueueDrains(t *testing.T) {
	sys := NewSystem(Config{Localities: 2, Workers: 1})
	defer sys.Close()
	sys.RegisterKind(func(rank int) *sched.Kind {
		return &sched.Kind{
			Name:    "w.unit",
			Process: func(ctx *sched.Ctx) (any, error) { return 1, nil },
		}
	})
	sys.Start()
	total := 0
	for i := 0; i < 32; i++ {
		var v int
		if err := sys.Wait("w.unit", struct{}{}, &v); err != nil {
			t.Fatal(err)
		}
		total += v
	}
	if total != 32 {
		t.Fatalf("total = %d", total)
	}
	for rank := 0; rank < sys.Size(); rank++ {
		if n := sys.Scheduler(rank).QueueLen(); n != 0 {
			t.Fatalf("rank %d queue not drained: %d", rank, n)
		}
	}
}

// TestPForRangeBody: a RangeBody is called once per leaf with the leaf's
// sub-range and payload, the leaves tile the loop's range, and a spec
// states its body in exactly one of the two forms.
func TestPForRangeBody(t *testing.T) {
	sys := NewSystem(Config{Localities: 2})
	defer sys.Close()
	var mu sync.Mutex
	var leaves []Range
	RegisterPFor(sys, PForSpec{
		Name:     "ranges",
		MinGrain: 64,
		RangeBody: func(_ *sched.Ctx, r Range, extra []byte) {
			if string(extra) != "x" {
				t.Errorf("leaf %v got payload %q", r, extra)
			}
			mu.Lock()
			leaves = append(leaves, Range{Lo: r.Lo.Clone(), Hi: r.Hi.Clone()})
			mu.Unlock()
		},
	})
	for name, spec := range map[string]PForSpec{
		"neither": {Name: "neither"},
		"both": {Name: "both",
			Body:      func(*sched.Ctx, region.Point, []byte) {},
			RangeBody: func(*sched.Ctx, Range, []byte) {}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a spec with %s of Body and RangeBody was accepted", name)
				}
			}()
			RegisterPFor(sys, spec)
		}()
	}
	sys.Start()
	if err := sys.PFor("ranges", region.Point{0, 0}, region.Point{16, 32}, []byte("x")); err != nil {
		t.Fatal(err)
	}
	seen := make(map[[2]int]int)
	for _, r := range leaves {
		r.ForEach(func(p region.Point) { seen[[2]int{p[0], p[1]}]++ })
	}
	if len(leaves) < 2 || len(seen) != 16*32 {
		t.Fatalf("%d leaves cover %d points, want several and %d", len(leaves), len(seen), 16*32)
	}
	for p, n := range seen {
		if n != 1 {
			t.Fatalf("point %v is in %d leaves", p, n)
		}
	}
}

// TestLocalTreeAllocs bounds what a task costs in allocations where
// nothing leaves the rank: a requirement-free pfor tree of 127 tasks (63
// splits, 64 leaves) on one worker of one locality is a depth-first
// recursion on that worker's stack, and what it allocates is what spawn,
// split and join bookkeeping allocate. A goroutine, a channel and a
// sync.Map entry per task once needed 2 249 a tree; a spec, a future, a
// promise-table entry and a context per task, and a split's Ranges, 892;
// a task object per child 259 (52.6 KB). Now a split's two children
// live in one fork frame that the worker reuses once both have settled,
// so a tree allocates no task for a child; a split's two children share
// one argument buffer, a leaf's bounds and cursor one allocation, and no
// promise is named: 133 (12.5 KB, logged), and the bound is that plus
// 3 %.
func TestLocalTreeAllocs(t *testing.T) {
	sys := NewSystem(Config{Localities: 1, Workers: 1, Policy: &sched.DefaultPolicy{ExtraDepth: 6}})
	defer sys.Close()
	var points atomic.Int64
	RegisterPFor(sys, PForSpec{
		Name:     "leaf",
		MinGrain: 1,
		Body:     func(*sched.Ctx, region.Point, []byte) { points.Add(1) },
	})
	sys.Start()
	const n, runs = 4096, 50
	tree := func() {
		if err := sys.PFor("leaf", region.Point{0}, region.Point{n}, nil); err != nil {
			t.Error(err)
		}
	}
	executed, splits := sys.CounterSum(sched.MetricExecuted), sys.CounterSum(sched.MetricSplits)
	var mem [2]goruntime.MemStats
	goruntime.ReadMemStats(&mem[0])
	allocs := testing.AllocsPerRun(runs, tree)
	goruntime.ReadMemStats(&mem[1])
	trees := uint64(runs + 1) // AllocsPerRun warms up with one run more
	if got := sys.CounterSum(sched.MetricExecuted) - executed; got != 127*trees {
		t.Fatalf("%d tasks in %d trees, want 127 each", got, trees)
	}
	if got := sys.CounterSum(sched.MetricSplits) - splits; got != 63*trees {
		t.Fatalf("%d splits in %d trees, want 63 each", got, trees)
	}
	if got := points.Load(); got != n*int64(trees) {
		t.Fatalf("%d points visited, want %d", got, n*int64(trees))
	}
	if got := sys.CounterSum(runtime.MetricPromisesNamed); got != 0 {
		t.Fatalf("%d promises named in %d trees on one locality, want 0", got, trees)
	}
	t.Logf("%.0f allocations, %.1f KB per 127-task tree (%.1f allocations per task)",
		allocs, float64(mem[1].TotalAlloc-mem[0].TotalAlloc)/float64(trees)/1000, allocs/127)
	if allocs > 137 {
		t.Fatalf("%.0f allocations per 127-task tree, want at most 137", allocs)
	}
}

// TestTreeNamesOnlyDepartingPromises: on two localities DefaultPolicy
// ships one half of the tree to rank 1, and in a tree nothing is stolen
// from that one task is the only one whose future gets a name. A steal
// names at most the granted task and what placement ships back from the
// thief. The rest resolve where they were spawned.
func TestTreeNamesOnlyDepartingPromises(t *testing.T) {
	sys := NewSystem(Config{Localities: 2, Workers: 1, Policy: &sched.DefaultPolicy{ExtraDepth: 5}})
	defer sys.Close()
	RegisterPFor(sys, PForSpec{Name: "leaf", MinGrain: 1, Body: func(*sched.Ctx, region.Point, []byte) {}})
	sys.Start()
	counts := func() (named, placed, granted uint64) {
		return sys.CounterSum(runtime.MetricPromisesNamed), sys.CounterSum(sched.MetricRemotePlaced),
			sys.CounterSum(sched.MetricStolenFrom)
	}
	clean := 0
	for trees := 0; clean < 50; trees++ {
		if trees == 1000 {
			t.Fatalf("only %d of 1000 trees ran without a steal", clean)
		}
		n0, p0, g0 := counts()
		if err := sys.PFor("leaf", region.Point{0}, region.Point{4096}, nil); err != nil {
			t.Fatal(err)
		}
		n1, p1, g1 := counts()
		named, placed, granted := n1-n0, p1-p0, g1-g0
		if granted == 0 {
			clean++
			if placed != 1 || named != 1 {
				t.Fatalf("a tree without steals: %d remote placements, %d promises named, want 1 and 1", placed, named)
			}
		} else if named > placed+granted {
			t.Fatalf("a tree with %d grants and %d remote placements named %d promises", granted, placed, named)
		}
	}
}

// TestSpawnTreeProtocolCounts pins what one spawn tree — the benchmark's
// spawn-tree op: a requirement-free pfor of 127 tasks, DefaultPolicy's
// five extra levels, one worker on each of 2 localities over TCP —
// costs when nothing is stolen: 127 tasks and 63 splits, one named
// promise (the half shipped to rank 1), one sched.runb and one
// runtime.fulfill call that nobody awaits (their acks ride on each
// other's frames), two frames, and the objects the tree allocates on
// both ranks: the fewest of three batches, as idle workers' probes and
// the collector only add. With a task allocated per child a tree needed
// 308; with fork frames reused it is 182, and 187–193 under -race, which
// drops pooled objects at random. The bound is that plus 3 %.
func TestSpawnTreeProtocolCounts(t *testing.T) {
	eps, err := transport.NewTCPLoopback(2, transport.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(Config{Endpoints: eps, Workers: 1, Policy: &sched.DefaultPolicy{ExtraDepth: 5}})
	defer sys.Close()
	RegisterPFor(sys, PForSpec{Name: "leaf", MinGrain: 1, Body: func(*sched.Ctx, region.Point, []byte) {}})
	sys.Start()
	tree := func() {
		if err := sys.PFor("leaf", region.Point{0}, region.Point{4096}, nil); err != nil {
			t.Fatal(err)
		}
	}
	for range 100 {
		tree()
	}
	hist := func(name string) (n uint64) {
		for r := 0; r < sys.Size(); r++ {
			n += sys.Metrics(r).Histogram(name).Snapshot().Count
		}
		return n
	}
	type reading struct{ tasks, splits, named, calls, runb, awaited, frames, sent, received, granted uint64 }
	read := func() reading {
		return reading{
			tasks: sys.CounterSum(sched.MetricExecuted), splits: sys.CounterSum(sched.MetricSplits),
			named: sys.CounterSum(runtime.MetricPromisesNamed), calls: sys.CounterSum(runtime.MetricRPCCalls),
			runb: hist(sched.MetricShipBatch), awaited: hist(runtime.MetricRPCRoundtrip),
			// The frames of calls and replies, counted as they arrive:
			// no steal probe or rpc.acks frame is among them.
			frames:   sys.CounterSum(runtime.MetricRPCCallFrames),
			sent:     sys.CounterSum(transport.MetricMsgsSent),
			received: sys.CounterSum(transport.MetricMsgsReceived),
			granted:  sys.CounterSum(sched.MetricStolenFrom),
		}
	}
	// The counts are read once every frame sent has arrived and two
	// readings 1 ms apart agree: the last fulfilment may be on its way.
	settled := func() reading {
		deadline := time.Now().Add(5 * time.Second)
		for {
			a := read()
			time.Sleep(time.Millisecond)
			if b := read(); a == b && a.sent == a.received {
				return a
			}
			if time.Now().After(deadline) {
				t.Fatal("the counts do not settle")
			}
		}
	}
	// A batch in which a worker was granted tasks ran more than a tree's
	// protocol: it does not count.
	const runs, batches = 50, 3
	allocs := math.Inf(1)
	for attempt, clean := 0, 0; clean < batches; attempt++ {
		if attempt == 20 {
			t.Fatalf("%d of 20 batches of trees ran without a steal, want %d", clean, batches)
		}
		before := settled()
		batch := testing.AllocsPerRun(runs, tree)
		after := settled()
		if after.granted != before.granted {
			continue
		}
		clean++
		allocs = min(allocs, batch)
		trees := float64(runs + 1) // AllocsPerRun warms up with one run more
		per := func(a, b uint64) float64 { return float64(b-a) / trees }
		tasks, splits, named := per(before.tasks, after.tasks), per(before.splits, after.splits), per(before.named, after.named)
		runb, fulfill := per(before.runb, after.runb), per(before.calls, after.calls)-per(before.runb, after.runb)
		awaited, frames := per(before.awaited, after.awaited), per(before.frames, after.frames)
		t.Logf("per tree: %.0f tasks, %.0f splits, %.0f named; %.2f sched.runb and %.2f runtime.fulfill calls, %.2f awaited, in %.2f frames; %.0f allocations",
			tasks, splits, named, runb, fulfill, awaited, frames, batch)
		if tasks != 127 || splits != 63 || named != 1 {
			t.Errorf("per tree: %v tasks, %v splits, %v promises named, want 127, 63 and 1", tasks, splits, named)
		}
		if runb != 1 || fulfill != 1 || awaited != 0 {
			t.Errorf("per tree: %v sched.runb and %v runtime.fulfill calls, %v awaited, want 1, 1 and 0", runb, fulfill, awaited)
		}
		if frames != 2 {
			t.Errorf("per tree: %v frames, want 2", frames)
		}
	}
	if allocs > 199 {
		t.Errorf("%.0f allocations per tree, want at most 199", allocs)
	}
}

// TestCloseDuringTreeReturnsWait: closing a two-locality system while a
// tree runs ends the root's Wait. Rank 0's worker, joining the half on
// rank 1, is what Close waits for; that half answers by the name its
// ship gave it.
func TestCloseDuringTreeReturnsWait(t *testing.T) {
	sys := NewSystem(Config{Localities: 2, Workers: 1, Policy: &sched.DefaultPolicy{ExtraDepth: 5}})
	running := make(chan struct{})
	var once sync.Once
	RegisterPFor(sys, PForSpec{Name: "leaf", MinGrain: 1, Body: func(*sched.Ctx, region.Point, []byte) {
		once.Do(func() { close(running) })
		time.Sleep(time.Microsecond)
	}})
	sys.Start()
	done := make(chan error, 1)
	go func() { done <- sys.PFor("leaf", region.Point{0}, region.Point{1 << 14}, nil) }()
	<-running
	closed := make(chan struct{})
	go func() { sys.Close(); close(closed) }()
	select {
	case err := <-done:
		t.Logf("root's Wait returned %v", err)
	case <-time.After(30 * time.Second):
		t.Fatal("the root's Wait did not return after Close")
	}
	select {
	case <-closed:
	case <-time.After(30 * time.Second):
		t.Fatal("Close did not return")
	}
}
