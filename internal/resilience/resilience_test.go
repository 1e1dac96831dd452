package resilience_test

import (
	"bytes"
	"testing"

	"allscale/internal/apps/stencil"
	"allscale/internal/core"
	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/recovery"
	"allscale/internal/region"
	"allscale/internal/resilience"
	"allscale/internal/sched"
)

// buildGridSystem creates a 3-locality system with one distributed,
// initialized grid item.
func buildGridSystem(t testing.TB) (*core.System, *core.Grid[int]) {
	t.Helper()
	sys := core.NewSystem(core.Config{Localities: 3})
	grid := core.DefineGrid[int](sys, "cp.grid", region.Point{24, 8})
	core.RegisterPFor(sys, core.PForSpec{
		Name:     "cp.init",
		MinGrain: 16,
		Body: func(ctx *sched.Ctx, p region.Point, _ []byte) {
			grid.Local(ctx).Set(p, p[0]*100+p[1])
		},
		Reqs: func(r core.Range, _ []byte) []dim.Requirement {
			return []dim.Requirement{{Item: grid.Item(), Region: grid.Region(r.Lo, r.Hi), Mode: dim.Write}}
		},
	})
	sys.Start()
	if err := grid.Create(); err != nil {
		t.Fatal(err)
	}
	if err := sys.PFor("cp.init", region.Point{0, 0}, region.Point{24, 8}, nil); err != nil {
		t.Fatal(err)
	}
	return sys, grid
}

// restore puts the checkpoint into sys the one way there is: through a
// recovery coordinator attached to it.
func restore(sys *core.System, cp *resilience.Checkpoint) error {
	return recovery.Attach(sys, recovery.Options{}).Restore(cp)
}

func TestCaptureAndRestoreIntoFreshSystem(t *testing.T) {
	sys, grid := buildGridSystem(t)
	cp, err := resilience.Capture(sys, []dim.ItemID{grid.Item()})
	if err != nil {
		t.Fatal(err)
	}
	if cp.Size() == 0 || len(cp.Records) == 0 {
		t.Fatalf("empty checkpoint: %d records, %d bytes", len(cp.Records), cp.Size())
	}
	sys.Close()

	// A "restarted" process: same construction path, fresh state.
	sys2 := core.NewSystem(core.Config{Localities: 3})
	grid2 := core.DefineGrid[int](sys2, "cp.grid", region.Point{24, 8})
	sys2.Start()
	defer sys2.Close()
	if err := grid2.Create(); err != nil {
		t.Fatal(err)
	}
	if grid2.Item() != grid.Item() {
		t.Fatalf("item IDs diverged: %v vs %v (same creation order required)", grid2.Item(), grid.Item())
	}
	if err := restore(sys2, cp); err != nil {
		t.Fatal(err)
	}

	// Every element must carry its pre-checkpoint value.
	err = grid2.Read(grid2.FullRegion(), func(f *dataitem.GridFragment[int]) {
		for x := 0; x < 24; x++ {
			for y := 0; y < 8; y++ {
				if got := f.At(region.Point{x, y}); got != x*100+y {
					t.Fatalf("cell (%d,%d) = %d after restore", x, y, got)
				}
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	// The restored distribution must match the captured one.
	for _, rec := range cp.Records {
		cov, err := sys2.Manager(rec.Rank).Coverage(rec.Item)
		if err != nil {
			t.Fatal(err)
		}
		if !rec.Snapshot.Region.Difference(cov).IsEmpty() {
			t.Fatalf("rank %d lost region %v after restore", rec.Rank, rec.Snapshot.Region)
		}
	}
}

func TestRestoredSystemSupportsWrites(t *testing.T) {
	sys, _ := buildGridSystem(t)
	cp, err := resilience.Capture(sys, nil) // nil = all items
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()

	sys2 := core.NewSystem(core.Config{Localities: 3})
	grid2 := core.DefineGrid[int](sys2, "cp.grid", region.Point{24, 8})
	sys2.Start()
	defer sys2.Close()
	if err := grid2.Create(); err != nil {
		t.Fatal(err)
	}
	if err := restore(sys2, cp); err != nil {
		t.Fatal(err)
	}

	// A write acquisition after restore must consolidate correctly
	// (the restore re-derived the allocation claims at the index root;
	// a double first-touch would zero the data).
	mgr := sys2.Manager(1)
	r := dataitem.GridRegionFromTo(region.Point{0, 0}, region.Point{24, 8})
	if err := mgr.Acquire(77, []dim.Requirement{{Item: grid2.Item(), Region: r, Mode: dim.Write}}); err != nil {
		t.Fatal(err)
	}
	frag, _ := mgr.Fragment(grid2.Item())
	if got := frag.(*dataitem.GridFragment[int]).At(region.Point{20, 5}); got != 20*100+5 {
		t.Fatalf("value after consolidating restore = %d (restore bypassed allocation claim?)", got)
	}
	mgr.Release(77)
}

func TestCheckpointSerializationRoundTrip(t *testing.T) {
	sys, grid := buildGridSystem(t)
	defer sys.Close()
	cp, err := resilience.Capture(sys, []dim.ItemID{grid.Item()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := resilience.ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Localities != cp.Localities || len(back.Records) != len(cp.Records) || back.Size() != cp.Size() {
		t.Fatalf("round trip changed checkpoint: %+v", back)
	}
	for i, rec := range back.Records {
		if !rec.Snapshot.Region.Equal(cp.Records[i].Snapshot.Region) {
			t.Fatalf("record %d region changed", i)
		}
	}
}

func TestCheckpointCorruptionRejected(t *testing.T) {
	sys, grid := buildGridSystem(t)
	defer sys.Close()
	cp, err := resilience.Capture(sys, []dim.ItemID{grid.Item()})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := cp.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0xFF
	if _, err := resilience.ReadCheckpoint(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("bit flip not caught by the checksum")
	}
	if _, err := resilience.ReadCheckpoint(bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Fatal("truncated checkpoint accepted")
	}
	if _, err := resilience.ReadCheckpoint(bytes.NewReader(data[:2])); err == nil {
		t.Fatal("near-empty stream accepted")
	}

	// Anything without the format magic is not a checkpoint.
	if _, err := resilience.ReadCheckpoint(bytes.NewReader(append([]byte{0x00}, data...))); err == nil {
		t.Fatal("stream without the format magic accepted")
	}
}

func TestRestoreRejectsMismatchedSystems(t *testing.T) {
	sys, grid := buildGridSystem(t)
	cp, err := resilience.Capture(sys, []dim.ItemID{grid.Item()})
	if err != nil {
		t.Fatal(err)
	}
	sys.Close()

	wrongSize := core.NewSystem(core.Config{Localities: 2})
	wrongSize.Start()
	defer wrongSize.Close()
	if err := restore(wrongSize, cp); err == nil {
		t.Fatal("restore into smaller system must fail")
	}

	noItem := core.NewSystem(core.Config{Localities: 3})
	noItem.Start()
	defer noItem.Close()
	if err := restore(noItem, cp); err == nil {
		t.Fatal("restore without created items must fail")
	}

	// The same creator and sequence number under another type: the
	// checkpoint is not this system's. The ID differs in its type code,
	// which names no type this system has.
	otherType := core.NewSystem(core.Config{Localities: 3})
	other := core.DefineGrid[int](otherType, "cp.other", region.Point{24, 8})
	otherType.Start()
	defer otherType.Close()
	if err := other.Create(); err != nil {
		t.Fatal(err)
	}
	if other.Item().String() != grid.Item().String() || other.Item() == grid.Item() {
		t.Fatalf("item IDs %v and %v: want one creator and sequence number, two types", other.Item(), grid.Item())
	}
	if err := restore(otherType, cp); err == nil {
		t.Fatal("restore into an item of another type must fail")
	}
	if cov, err := otherType.Manager(0).Coverage(other.Item()); err != nil || !cov.IsEmpty() {
		t.Fatalf("refused restore left coverage %v behind (err %v)", cov, err)
	}
}

// TestCheckpointRestartMidComputation is the headline scenario: stop
// a stencil run halfway, checkpoint, restart in a new system, finish
// there, and obtain the exact result of an uninterrupted run.
func TestCheckpointRestartMidComputation(t *testing.T) {
	p := stencil.Params{N: 24, Steps: 6, C: 0.1, MinGrain: 32}
	want := stencil.RunSequential(p)

	// Phase 1: run the first 3 steps.
	half := p
	half.Steps = 3
	sys1 := core.NewSystem(core.Config{Localities: 3})
	app1 := stencil.NewAllScale(sys1, half)
	sys1.Start()
	if err := app1.Run(); err != nil {
		t.Fatal(err)
	}
	cp, err := resilience.Capture(sys1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys1.Close()

	// Phase 2: restart and run the remaining 3 steps. The stencil app
	// alternates buffers by step parity, so the second half must know
	// it starts at an odd step: rebuild with full Steps and replay
	// only the remaining pfor phases.
	sys2 := core.NewSystem(core.Config{Localities: 3})
	app2 := stencil.NewAllScale(sys2, p)
	sys2.Start()
	defer sys2.Close()
	if err := app2.CreateItems(); err != nil {
		t.Fatal(err)
	}
	if err := restore(sys2, cp); err != nil {
		t.Fatal(err)
	}
	if err := app2.RunSteps(3, 6); err != nil {
		t.Fatal(err)
	}
	got, err := app2.Result()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d = %v after restart, want %v", i, got[i], want[i])
		}
	}
}
