// Top-level benchmark harness: one benchmark per table and figure of
// the paper's evaluation (Section 4), plus microbenchmarks of the
// load-bearing runtime mechanisms. Run with
//
//	go test -bench=. -benchmem .
//
// Figure benchmarks print the regenerated series once per run; the
// reported ns/op measures the cost of regenerating the artifact.
package allscale_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"allscale/internal/apps/ipic3d"
	"allscale/internal/apps/stencil"
	"allscale/internal/apps/tpc"
	"allscale/internal/bench"
	"allscale/internal/core"
	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/region"
	"allscale/internal/resilience"
	"allscale/internal/runtime"
	"allscale/internal/sched"
)

// ---------------------------------------------------------------
// Table 1: the three target application codes (real runtime, small
// instances of each workload).
// ---------------------------------------------------------------

func BenchmarkTable1Apps(b *testing.B) {
	b.Run("stencil", func(b *testing.B) {
		p := stencil.Params{N: 64, Steps: 4, C: 0.1, MinGrain: 512}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := stencil.RunAllScale(2, p); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64((p.N-2)*(p.N-2)*stencil.FlopsPerCell*p.Steps), "flops/op")
	})
	b.Run("iPiC3D", func(b *testing.B) {
		p := ipic3d.Params{N: 5, Steps: 2, PartsPerCell: 2, Dt: 0.5, Seed: 1, MinGrain: 32}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ipic3d.RunAllScale(2, p); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(p.N*p.N*p.N*p.PartsPerCell*p.Steps), "particle-updates/op")
	})
	b.Run("TPC", func(b *testing.B) {
		p := tpc.Params{NumPoints: 512, Height: 6, BlockHeight: 2, Radius: 60, NumQueries: 8, Seed: 3}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := tpc.RunAllScale(2, p); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(p.NumQueries), "queries/op")
	})
}

// ---------------------------------------------------------------
// Fig. 7: throughput scaling of the three applications on the
// simulated 1–64 node cluster (AllScale vs MPI vs linear).
// ---------------------------------------------------------------

func BenchmarkFig7Stencil(b *testing.B) {
	var fig bench.Figure
	for i := 0; i < b.N; i++ {
		fig = bench.Fig7Stencil()
	}
	printFig(b, fig)
}

func BenchmarkFig7IPiC3D(b *testing.B) {
	var fig bench.Figure
	for i := 0; i < b.N; i++ {
		fig = bench.Fig7IPiC3D()
	}
	printFig(b, fig)
}

func BenchmarkFig7TPC(b *testing.B) {
	var fig bench.Figure
	for i := 0; i < b.N; i++ {
		fig = bench.Fig7TPC()
	}
	printFig(b, fig)
}

func printFig(b *testing.B, fig bench.Figure) {
	b.Helper()
	b.StopTimer()
	fmt.Println(fig.Render())
	if v, ok := fig.Lookup("AllScale", 64); ok {
		b.ReportMetric(v, "allscale@64")
	}
	if v, ok := fig.Lookup("MPI", 64); ok {
		b.ReportMetric(v, "mpi@64")
	}
}

// ---------------------------------------------------------------
// Ablation benches (E5–E7 of DESIGN.md).
// ---------------------------------------------------------------

func BenchmarkTreeRegionOps(b *testing.B) {
	mk := func(h int) []region.TreeRegion {
		out := make([]region.TreeRegion, 8)
		for i := range out {
			r := region.EmptyTreeRegion(h)
			for j := 0; j < 4; j++ {
				r = r.Union(region.SubtreeRegion(h, region.NodeID(3+i*5+j*7)))
			}
			out[i] = r
		}
		return out
	}
	b.Run("flexible-h16", func(b *testing.B) {
		rs := mk(16)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a, c := rs[i%8], rs[(i+3)%8]
			_ = a.Union(c).Difference(a.Intersect(c))
		}
	})
	b.Run("blocked-h16", func(b *testing.B) {
		rs := make([]region.BlockedTreeRegion, 8)
		for i := range rs {
			r := region.NewBlockedTreeRegion(16, 8)
			for j := 0; j < 16; j++ {
				r = r.WithBlock((i*13 + j*29) % r.Blocks())
			}
			rs[i] = r
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			a, c := rs[i%8], rs[(i+3)%8]
			_ = a.Union(c).Difference(a.Intersect(c))
		}
	})
}

func BenchmarkIndexResolve(b *testing.B) {
	for _, p := range []int{4, 16} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			sys := runtime.NewSystem(p)
			managers := make([]*dim.Manager, p)
			typ := dataitem.NewGridType[int]("bench.field", region.Point{16 * p, 16})
			for i := 0; i < p; i++ {
				reg := dataitem.NewRegistry()
				reg.MustRegister(typ)
				managers[i] = dim.New(sys.Locality(i), reg)
			}
			sys.Start()
			defer sys.Close()
			id, err := managers[0].CreateItem(typ)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < p; i++ {
				band := dataitem.GridRegionFromTo(region.Point{16 * i, 0}, region.Point{16 * (i + 1), 16})
				if err := managers[i].Acquire(uint64(i+1), []dim.Requirement{{Item: id, Region: band, Mode: dim.Write}}); err != nil {
					b.Fatal(err)
				}
				managers[i].Release(uint64(i + 1))
			}
			span := dataitem.GridRegionFromTo(region.Point{3, 0}, region.Point{16*p - 3, 16})
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := managers[i%p].Lookup(id, span); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSchedulerPolicies(b *testing.B) {
	params := stencil.Params{N: 32, Steps: 2, C: 0.1, MinGrain: 128}
	for i := 0; i < b.N; i++ {
		if _, err := bench.SchedulerAblation(2, params); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------
// Microbenchmarks of the load-bearing mechanisms.
// ---------------------------------------------------------------

func BenchmarkBoxSetOps(b *testing.B) {
	mk := func(off int) region.BoxSet {
		return region.NewBoxSet(
			region.NewBox(region.Point{off, 0}, region.Point{off + 40, 40}),
			region.NewBox(region.Point{off + 50, 10}, region.Point{off + 90, 60}),
		)
	}
	a, c := mk(0), mk(25)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = a.Union(c).Difference(a.Intersect(c))
	}
}

func BenchmarkDIMAcquireRelease(b *testing.B) {
	sys := runtime.NewSystem(2)
	managers := make([]*dim.Manager, 2)
	typ := dataitem.NewGridType[float64]("bench.acq", region.Point{64, 64})
	for i := 0; i < 2; i++ {
		reg := dataitem.NewRegistry()
		reg.MustRegister(typ)
		managers[i] = dim.New(sys.Locality(i), reg)
	}
	sys.Start()
	defer sys.Close()
	id, err := managers[0].CreateItem(typ)
	if err != nil {
		b.Fatal(err)
	}
	r := dataitem.GridRegionFromTo(region.Point{0, 0}, region.Point{64, 64})
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tok := uint64(i + 1)
		if err := managers[0].Acquire(tok, []dim.Requirement{{Item: id, Region: r, Mode: dim.Write}}); err != nil {
			b.Fatal(err)
		}
		managers[0].Release(tok)
	}
}

func BenchmarkTaskSpawnTree(b *testing.B) {
	sys := core.NewSystem(core.Config{Localities: 2})
	grid := core.DefineGrid[int](sys, "bench.spawn", region.Point{1 << 14})
	core.RegisterPFor(sys, core.PForSpec{
		Name:     "noop",
		MinGrain: 1 << 10,
		Body:     func(ctx *sched.Ctx, p region.Point, _ []byte) {},
	})
	_ = grid
	sys.Start()
	defer sys.Close()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := sys.PFor("noop", region.Point{0}, region.Point{1 << 14}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1Render(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = bench.Table1()
	}
}

// ---------------------------------------------------------------
// E10: tracing overhead. The acceptance bar for the observability
// layer is <5% slowdown on the stencil app with tracing enabled
// (per-rank span rings + wire-envelope propagation) versus disabled
// (nil tracer, one pointer test per instrumentation site).
// ---------------------------------------------------------------

func BenchmarkStencil(b *testing.B) {
	p := stencil.Params{N: 64, Steps: 4, C: 0.1, MinGrain: 512}
	run := func(b *testing.B, traceCap int) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys := core.NewSystem(core.Config{Localities: 2, TraceCapacity: traceCap})
			app := stencil.NewAllScale(sys, p)
			sys.Start()
			err := app.Run()
			if err == nil {
				_, err = app.Result()
			}
			sys.Close()
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("trace-off", func(b *testing.B) { run(b, 0) })
	b.Run("trace-on", func(b *testing.B) { run(b, 1<<16) })

	// small-grain shrinks the block size until the run is dominated by
	// task management rather than arithmetic — the scheduler fast-path
	// regression gauge of EXPERIMENTS.md E12.
	b.Run("small-grain-64", func(b *testing.B) {
		small := stencil.Params{N: 64, Steps: 4, C: 0.1, MinGrain: 64}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sys := core.NewSystem(core.Config{
				Localities: 2,
				Policy:     &sched.DefaultPolicy{ExtraDepth: 5},
			})
			app := stencil.NewAllScale(sys, small)
			sys.Start()
			err := app.Run()
			if err == nil {
				_, err = app.Result()
			}
			sys.Close()
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkStencilStep is one 64² time step on one locality as a
// single leaf: no messages, no index — what is left is the acquisition
// of two locally held requirements and the element-wise body, i.e. the
// task.exec self time of a stencil-halo half.
func BenchmarkStencilStep(b *testing.B) {
	sys := core.NewSystem(core.Config{Localities: 1})
	app := stencil.NewAllScale(sys, stencil.Params{N: 64, C: 0.1, MinGrain: 4096})
	sys.Start()
	defer sys.Close()
	err := app.CreateItems()
	if err == nil {
		err = app.Init()
	}
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := app.RunSteps(0, b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkGridLocal is what a pfor body pays to get from the façade
// to the local fragment — twice per cell in the stencil body.
func BenchmarkGridLocal(b *testing.B) {
	sys := core.NewSystem(core.Config{Localities: 1})
	grid := core.DefineGrid[float64](sys, "bench.local", region.Point{8, 8})
	var sink *dataitem.GridFragment[float64]
	core.RegisterPFor(sys, core.PForSpec{
		Name:     "local",
		MinGrain: math.MaxInt64, // one leaf: every point on one task context
		Body:     func(ctx *sched.Ctx, _ region.Point, _ []byte) { sink = grid.Local(ctx) },
	})
	sys.Start()
	defer sys.Close()
	if err := grid.Create(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := sys.PFor("local", region.Point{0}, region.Point{b.N}, nil); err != nil {
		b.Fatal(err)
	}
	_ = sink
}

// ---------------------------------------------------------------
// Checkpoint codec: the framed binary checkpoint format (uvarint
// records + CRC32) on a realistic multi-fragment capture.
// ---------------------------------------------------------------

func BenchmarkCheckpointCodec(b *testing.B) {
	sys := core.NewSystem(core.Config{Localities: 4})
	p := stencil.Params{N: 96, Steps: 2, C: 0.1, MinGrain: 512}
	app := stencil.NewAllScale(sys, p)
	sys.Start()
	defer sys.Close()
	if err := app.CreateItems(); err != nil {
		b.Fatal(err)
	}
	if err := app.Init(); err != nil {
		b.Fatal(err)
	}
	cp, err := resilience.Capture(sys, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("checkpoint: %d records, %d payload bytes", len(cp.Records), cp.Size())

	b.Run("wire-encode", func(b *testing.B) {
		b.ReportAllocs()
		var buf bytes.Buffer
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if _, err := cp.WriteTo(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})

	var wireBuf bytes.Buffer
	if _, err := cp.WriteTo(&wireBuf); err != nil {
		b.Fatal(err)
	}
	b.Run("wire-decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(wireBuf.Len()))
		for i := 0; i < b.N; i++ {
			if _, err := resilience.ReadCheckpoint(bytes.NewReader(wireBuf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}
