package ipic3d

import (
	"math"
	"testing"

	"allscale/internal/core"
	"allscale/internal/dim"
)

func testParams() Params {
	return Params{N: 6, Steps: 3, PartsPerCell: 2, Dt: 0.5, Seed: 42, MinGrain: 27}
}

// statesEqual compares fields exactly and cells as ID-sorted
// multisets.
func statesEqual(t *testing.T, name string, got, want *State) {
	t.Helper()
	got.Canonical()
	want.Canonical()
	if got.N != want.N {
		t.Fatalf("%s: size mismatch", name)
	}
	for i := range want.E {
		if got.E[i] != want.E[i] {
			t.Fatalf("%s: E[%d] = %v, want %v", name, i, got.E[i], want.E[i])
		}
	}
	for i := range want.Cells {
		g, w := got.Cells[i].Parts, want.Cells[i].Parts
		if len(g) != len(w) {
			t.Fatalf("%s: cell %d has %d particles, want %d", name, i, len(g), len(w))
		}
		for j := range w {
			if g[j] != w[j] {
				t.Fatalf("%s: cell %d particle %d = %+v, want %+v", name, i, j, g[j], w[j])
			}
		}
	}
}

func TestSequentialConservesParticles(t *testing.T) {
	p := testParams()
	initial := NewState(p).TotalParticles()
	final := RunSequential(p)
	if got := final.TotalParticles(); got != initial {
		t.Fatalf("particles not conserved: %d -> %d", initial, got)
	}
	if initial != p.N*p.N*p.N*p.PartsPerCell {
		t.Fatalf("initial count = %d", initial)
	}
}

func TestParticlesActuallyMigrate(t *testing.T) {
	p := testParams()
	s := RunSequential(p)
	// At least one particle must have left its birth cell (otherwise
	// the collect phase is untested).
	migrated := 0
	perCell := int64(p.PartsPerCell)
	for i := range s.Cells {
		for _, part := range s.Cells[i].Parts {
			birth := part.ID / perCell
			if birth != int64(i) {
				migrated++
			}
		}
	}
	if migrated == 0 {
		t.Fatal("no particle migrated between cells; test parameters too tame")
	}
}

func TestAdvanceReflectsAtWalls(t *testing.T) {
	p := Particle{ID: 1, Pos: Vec3{0.05, 3, 3}, Vel: Vec3{-1.5, 0, 0}}
	out := advance(p, Vec3{}, Vec3{}, 0.5, 6)
	if out.Pos[0] < 0 {
		t.Fatalf("particle escaped: %v", out.Pos)
	}
	if out.Vel[0] <= 0 {
		t.Fatalf("velocity not reflected off lower wall: %v", out.Vel)
	}
	// Upper wall.
	p = Particle{ID: 2, Pos: Vec3{5.95, 3, 3}, Vel: Vec3{1.5, 0, 0}}
	out = advance(p, Vec3{}, Vec3{}, 0.5, 6)
	if out.Pos[0] >= 6 {
		t.Fatalf("particle escaped high: %v", out.Pos)
	}
}

func TestAdvanceStaysBelowOneCellPerStep(t *testing.T) {
	p := Particle{ID: 3, Pos: Vec3{3, 3, 3}, Vel: Vec3{100, -50, 80}}
	out := advance(p, Vec3{10, 10, 10}, Vec3{1, 1, 1}, 0.5, 6)
	for d := 0; d < 3; d++ {
		if math.Abs(out.Pos[d]-p.Pos[d]) >= 1 {
			t.Fatalf("moved a full cell along %d: %v -> %v", d, p.Pos, out.Pos)
		}
	}
}

func TestAllScaleMatchesSequential(t *testing.T) {
	p := testParams()
	want := RunSequential(p)
	// Workers 0 is the default pool size; with one worker a body that
	// waited for a sibling would hang.
	for _, workers := range []int{0, 1} {
		for _, localities := range []int{1, 2, 4} {
			got, err := runAllScale(core.Config{Localities: localities, Workers: workers}, p)
			if err != nil {
				t.Fatalf("localities=%d workers=%d: %v", localities, workers, err)
			}
			statesEqual(t, "allscale", got, want)
		}
	}
}

// TestFineGrainFragmentsCrossLocalities: with a grain of 8 cells on two
// localities the collect and field phases read across the cut, so Cell
// and Vec3 fragments are extracted on one locality and inserted on the
// other in the forms the two types declare — and the run still matches
// the sequential one.
func TestFineGrainFragmentsCrossLocalities(t *testing.T) {
	p := Params{N: 4, Steps: 4, PartsPerCell: 2, Dt: 0.5, Seed: 42, MinGrain: 8}
	sys := core.NewSystem(core.Config{Localities: 2})
	app := NewAllScale(sys, p)
	sys.Start()
	defer sys.Close()
	if err := app.Run(); err != nil {
		t.Fatal(err)
	}
	// A cell held on both localities is a copy that crossed the wire.
	for name, item := range map[string]dim.ItemID{"Cell": app.pmid.Item(), "Vec3": app.b.Item()} {
		var held int64
		for rank := 0; rank < sys.Size(); rank++ {
			n, err := sys.Manager(rank).CoverageSize(item)
			if err != nil {
				t.Fatal(err)
			}
			held += n
		}
		if cells := int64(p.N * p.N * p.N); held <= cells {
			t.Errorf("no %s fragment was copied between the localities: %d of %d cells held", name, held, cells)
		}
	}
	got, err := app.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	statesEqual(t, "allscale", got, RunSequential(p))
}

func TestMPIMatchesSequential(t *testing.T) {
	p := testParams()
	want := RunSequential(p)
	for _, ranks := range []int{1, 2, 3} {
		got, err := RunMPI(ranks, p)
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		statesEqual(t, "mpi", got, want)
	}
}

func TestVec3Ops(t *testing.T) {
	a := Vec3{1, 0, 0}
	b := Vec3{0, 1, 0}
	if got := a.Cross(b); got != (Vec3{0, 0, 1}) {
		t.Fatalf("cross = %v", got)
	}
	if got := a.Add(b).Scale(2); got != (Vec3{2, 2, 0}) {
		t.Fatalf("add/scale = %v", got)
	}
}

func TestDeterministicInitialization(t *testing.T) {
	a := initialParticles(1, 2, 3, 6, 3, 42)
	b := initialParticles(1, 2, 3, 6, 3, 42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("initialization not deterministic")
		}
	}
	c := initialParticles(1, 2, 3, 6, 3, 43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seed has no effect")
	}
	// All particles start inside their cell.
	for _, part := range a {
		if cx, cy, cz := cellOf(part.Pos); cx != 1 || cy != 2 || cz != 3 {
			t.Fatalf("particle born outside cell: %v", part.Pos)
		}
	}
}
