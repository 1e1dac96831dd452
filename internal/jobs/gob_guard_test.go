package jobs

import (
	"testing"

	"allscale/internal/apps/stencil"
	"allscale/internal/apps/tpc"
	"allscale/internal/core"
	"allscale/internal/region"
	"allscale/internal/sched"
	"allscale/internal/wire"
)

// TestTaskPathTakesNoGobFallback holds the line DESIGN.md §6a draws:
// every value on the per-task path has a declared binary form. It
// warms a 2-locality system up, then drives steady-state stencil
// steps, a spawn tree, TPC queries and one job of each family, and
// asserts the process-wide gob-fallback count did not move. A type
// that falls back costs a gob stream per message — tens of
// microseconds where a task should cost one or two — and nothing else
// in the tier-1 suite would notice.
func TestTaskPathTakesNoGobFallback(t *testing.T) {
	const n = 32
	// One worker per locality, as in the benchmark: the children of a
	// joining TPC query run under the helping join. Also as in the
	// benchmark, no two tasks ever touch one grid fragment at a time —
	// a stencil step is issued as its two locality-sized halves one
	// after the other, and stencil jobs stay unsplit: the fragment is
	// not synchronised against the DIM's resizes (benchmark/README.md,
	// baseline observations), which is not what this test is about.
	sys := core.NewSystem(core.Config{Localities: 2, Workers: 1})
	heat := stencil.NewAllScale(sys, stencil.Params{N: n, C: 0.1, MinGrain: n * n / 2})
	halves := [2][2]region.Point{
		{{1, 1}, {n / 2, n - 1}},
		{{n / 2, 1}, {n - 1, n - 1}},
	}
	kd := tpc.NewAllScale(sys, tpc.Params{NumPoints: 1024, Height: 7, BlockHeight: 2, Radius: 30, Seed: 5})
	core.RegisterPFor(sys, core.PForSpec{
		Name:     "guard.leaf",
		MinGrain: 1,
		Body:     func(*sched.Ctx, region.Point, []byte) {},
	})
	w := RegisterWorkloads(sys, WorkloadConfig{StencilSizes: []int{n}, PForMinGrain: n * n})
	sys.Start()
	svc := New(sys, w, Config{})
	defer sys.Close()
	defer svc.Close()

	if err := heat.CreateItems(); err != nil {
		t.Fatal(err)
	}
	if err := heat.Init(); err != nil {
		t.Fatal(err)
	}
	if err := kd.Load(); err != nil {
		t.Fatal(err)
	}
	queries := tpc.GenerateQueries(16, 5)
	steps := 0
	round := func() {
		t.Helper()
		for end := steps + 4; steps < end; steps++ {
			for _, half := range halves {
				if err := sys.PFor("stencil.step", half[0], half[1], []byte{byte(steps % 2)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := sys.PFor("guard.leaf", region.Point{0}, region.Point{64}, []byte{1}); err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			if _, err := kd.Query(i%sys.Size(), q); err != nil {
				t.Fatal(err)
			}
		}
		ids := []uint64{
			mustSubmit(t, svc, "guard", FamilyPFor, PForParams{Levels: 4, Seed: 9}),
			mustSubmit(t, svc, "guard", FamilyStencil, StencilParams{N: n, Steps: 2}),
			mustSubmit(t, svc, "guard", FamilyTPC, TPCParams{NumPoints: 128, Height: 4, Radius: 0.2, NumQueries: 4, Seed: 2}),
			mustSubmit(t, svc, "guard", FamilyIPiC3D, IPiC3DParams{N: 3, Steps: 1, PartsPerCell: 1, Seed: 2}),
		}
		for _, id := range ids {
			waitState(t, svc, id, Done)
		}
	}

	round() // first-touch placement, halo replicas, locate caches
	before := wire.GobFallbacks()
	round()
	if moved := wire.GobFallbacks() - before; moved != 0 {
		t.Fatalf("steady-state tasks took the gob fallback %d times; give the type a wire form (DESIGN.md §6a)", moved)
	}
}
