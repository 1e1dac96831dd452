package stencil

import (
	"math"
	"testing"

	"allscale/internal/core"
	"allscale/internal/dataitem"
	"allscale/internal/region"
	"allscale/internal/sched"
)

func defaultParams() Params {
	return Params{N: 32, Steps: 5, C: 0.1, MinGrain: 64}
}

func fieldsEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: cell %d = %v, want %v (must be bit-identical)", name, i, got[i], want[i])
		}
	}
}

func TestSequentialDiffusionBehaviour(t *testing.T) {
	p := defaultParams()
	out := RunSequential(p)
	// Boundary cells keep their initial values.
	for y := 0; y < p.N; y++ {
		if out[y] != InitValue(0, y) {
			t.Fatalf("boundary cell (0,%d) changed", y)
		}
	}
	// Diffusion smooths the field: total variation must not grow.
	tv := func(f []float64) float64 {
		var v float64
		for x := 1; x < p.N-1; x++ {
			for y := 1; y < p.N-1; y++ {
				v += math.Abs(f[x*p.N+y] - f[x*p.N+y+1])
			}
		}
		return v
	}
	initial := RunSequential(Params{N: p.N, Steps: 0, C: p.C})
	if tv(out) >= tv(initial) {
		t.Fatalf("diffusion did not smooth: tv %v -> %v", tv(initial), tv(out))
	}
}

func TestAllScaleMatchesSequential(t *testing.T) {
	p := defaultParams()
	want := RunSequential(p)
	// Workers 0 is the default pool size; with one worker a body that
	// waited for a sibling would hang.
	for _, workers := range []int{0, 1} {
		for _, localities := range []int{1, 2, 4} {
			got, err := runAllScale(core.Config{Localities: localities, Workers: workers}, p)
			if err != nil {
				t.Fatalf("localities=%d workers=%d: %v", localities, workers, err)
			}
			fieldsEqual(t, "allscale", got, want)
		}
	}
}

func TestMPIMatchesSequential(t *testing.T) {
	p := defaultParams()
	want := RunSequential(p)
	for _, ranks := range []int{1, 2, 3, 4} {
		got, err := RunMPI(ranks, p)
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		fieldsEqual(t, "mpi", got, want)
	}
}

func TestZeroStepsReturnsInitialField(t *testing.T) {
	p := Params{N: 16, Steps: 0, C: 0.25, MinGrain: 64}
	out, err := RunAllScale(2, p)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0; x < p.N; x++ {
		for y := 0; y < p.N; y++ {
			if out[x*p.N+y] != InitValue(x, y) {
				t.Fatalf("cell (%d,%d) not initial", x, y)
			}
		}
	}
}

func TestOddStepCountEndsInOtherBuffer(t *testing.T) {
	p := Params{N: 16, Steps: 3, C: 0.2, MinGrain: 32}
	want := RunSequential(p)
	got, err := RunAllScale(2, p)
	if err != nil {
		t.Fatal(err)
	}
	fieldsEqual(t, "odd-steps", got, want)
}

// TestRangeBodyMatchesPointBody runs the same steps through the row
// kernel and through a per-point Body on the same items, at a grain that
// leaves every fragment in many small blocks: most rows cross a block
// edge and take StepRange's cell-by-cell fallback. All three fields must
// be bit-identical.
func TestRangeBodyMatchesPointBody(t *testing.T) {
	p := Params{N: 64, Steps: 6, C: 0.13, MinGrain: 64}
	want := RunSequential(p)
	run := func(stepKind string) []float64 {
		sys := core.NewSystem(core.Config{Localities: 4})
		app := NewAllScale(sys, p)
		core.RegisterPFor(sys, core.PForSpec{
			Name:     "stencil.step.point",
			MinGrain: p.MinGrain,
			Body: func(ctx *sched.Ctx, q region.Point, extra []byte) {
				src := app.grids[extra[0]].Local(ctx)
				x, y := q[0], q[1]
				app.grids[1-extra[0]].Local(ctx).Set(q, update(
					src.At(region.Point{x, y}),
					src.At(region.Point{x, y - 1}),
					src.At(region.Point{x, y + 1}),
					src.At(region.Point{x - 1, y}),
					src.At(region.Point{x + 1, y}),
					p.C,
				))
			},
			Reqs: app.stepReqs,
		})
		sys.Start()
		defer sys.Close()
		if err := app.CreateItems(); err != nil {
			t.Fatal(err)
		}
		if err := app.Init(); err != nil {
			t.Fatal(err)
		}
		for step := 0; step < p.Steps; step++ {
			if err := sys.PFor(stepKind, region.Point{1, 1}, region.Point{p.N - 1, p.N - 1}, []byte{byte(step % 2)}); err != nil {
				t.Fatal(err)
			}
		}
		// The premise: whole rows are not to be had from these fragments.
		whole, cut := 0, 0
		for rank := 0; rank < 4; rank++ {
			frag, err := sys.Manager(rank).Fragment(app.grids[0].Item())
			if err != nil {
				t.Fatal(err)
			}
			gf := frag.(*dataitem.GridFragment[float64])
			for x := 0; x < p.N; x++ {
				if !gf.Covers(region.Point{x, 0}) {
					continue
				}
				if _, ok := gf.Row(region.Point{x, 0}, p.N); ok {
					whole++
				} else {
					cut++
				}
			}
		}
		if cut <= whole {
			t.Fatalf("%s: %d rows cross a block edge, %d do not; the fallback is barely exercised", stepKind, cut, whole)
		}
		got, err := app.Result()
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	fieldsEqual(t, "range body", run("stencil.step"), want)
	fieldsEqual(t, "point body", run("stencil.step.point"), want)
}

// TestLongRunSplitLeavesMatchSequential is the run that drifted while a
// Resize moved storage under sibling leaves: two localities, four leaves
// each, 2 000 steps, bit for bit (ROADMAP item 1).
func TestLongRunSplitLeavesMatchSequential(t *testing.T) {
	p := Params{N: 64, Steps: 2000, C: 0.1, MinGrain: 512}
	got, err := RunAllScale(2, p)
	if err != nil {
		t.Fatal(err)
	}
	fieldsEqual(t, "long run", got, RunSequential(p))
}
