package bench

import (
	"strings"
	"sync"
	"testing"
	"time"

	stencilapp "allscale/internal/apps/stencil"
	"allscale/internal/apps/tpc"
)

// The tests in this file assert the qualitative findings of the
// paper's Section 4.2 — who wins, by roughly what factor, and where
// crossovers fall — rather than absolute numbers (the substrate is a
// simulator, not the authors' testbed).

func value(t *testing.T, f Figure, label string, nodes int) float64 {
	t.Helper()
	v, ok := f.Lookup(label, nodes)
	if !ok {
		t.Fatalf("%s: series %q has no point at %d nodes", f.ID, label, nodes)
	}
	return v
}

func TestFig7StencilShape(t *testing.T) {
	f := Fig7Stencil()
	// "comparable performance and scalability": AllScale within 10%
	// of MPI everywhere.
	for _, n := range NodeSweep {
		a, m := value(t, f, "AllScale", n), value(t, f, "MPI", n)
		if a < 0.9*m {
			t.Errorf("%d nodes: AllScale %.1f below 90%% of MPI %.1f", n, a, m)
		}
		if a > 1.02*m {
			t.Errorf("%d nodes: AllScale %.1f implausibly above MPI %.1f", n, a, m)
		}
	}
	// Near-linear weak scaling: ≥85% parallel efficiency at 64 nodes.
	base := value(t, f, "MPI", 1)
	if eff := value(t, f, "MPI", 64) / (64 * base); eff < 0.85 {
		t.Errorf("MPI 64-node efficiency %.2f < 0.85", eff)
	}
	if eff := value(t, f, "AllScale", 64) / (64 * value(t, f, "AllScale", 1)); eff < 0.85 {
		t.Errorf("AllScale 64-node efficiency %.2f < 0.85", eff)
	}
	// Paper magnitude: ~3000 GFLOPS at 64 nodes (within a factor ~2).
	if v := value(t, f, "MPI", 64); v < 1500 || v > 6000 {
		t.Errorf("MPI@64 = %.0f GFLOPS, expected paper-like ~3000", v)
	}
}

func TestFig7IPiC3DShape(t *testing.T) {
	f := Fig7IPiC3D()
	for _, n := range NodeSweep {
		a, m := value(t, f, "AllScale", n), value(t, f, "MPI", n)
		if a < 0.9*m {
			t.Errorf("%d nodes: AllScale %.0f below 90%% of MPI %.0f", n, a, m)
		}
	}
	if eff := value(t, f, "AllScale", 64) / (64 * value(t, f, "AllScale", 1)); eff < 0.85 {
		t.Errorf("AllScale 64-node efficiency %.2f < 0.85", eff)
	}
	// Paper magnitude: ~4e6 particle updates/s at 64 nodes.
	if v := value(t, f, "MPI", 64); v < 2e6 || v > 8e6 {
		t.Errorf("MPI@64 = %.0f particles/s, expected paper-like ~4e6", v)
	}
}

var (
	tpcSweepOnce sync.Once
	tpcSweep     Figure
)

// sharedTPCSweep is Fig7TPCCached, simulated once per test binary. Its
// "AllScale" and "MPI" series are Fig7TPC's (TestFig7Deterministic
// checks them value for value against a fresh Fig7TPC), so the TPC
// shape, the E13 crossover and the determinism test read one sweep.
func sharedTPCSweep() Figure {
	tpcSweepOnce.Do(func() { tpcSweep = Fig7TPCCached() })
	return tpcSweep
}

func TestFig7TPCShape(t *testing.T) {
	t.Parallel()
	f := sharedTPCSweep()
	// "MPI obtains higher performance": MPI strictly above AllScale
	// from 2 nodes on, by a growing factor.
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		a, m := value(t, f, "AllScale", n), value(t, f, "MPI", n)
		if m <= a {
			t.Errorf("%d nodes: MPI %.0f not above AllScale %.0f", n, m, a)
		}
	}
	if r := value(t, f, "MPI", 64) / value(t, f, "AllScale", 64); r < 10 {
		t.Errorf("MPI/AllScale ratio at 64 nodes = %.1f, expected >> 1", r)
	}
	// "AllScale can only gain performance improvements up to 8
	// nodes": the peak lies in {4,8,16} and 64 nodes is below it.
	peakNodes, peak := 0, 0.0
	for _, n := range NodeSweep {
		if v := value(t, f, "AllScale", n); v > peak {
			peak, peakNodes = v, n
		}
	}
	if peakNodes < 4 || peakNodes > 16 {
		t.Errorf("AllScale peak at %d nodes, paper shows ~8", peakNodes)
	}
	if v := value(t, f, "AllScale", 64); v >= peak {
		t.Errorf("AllScale@64 (%.0f) not below peak (%.0f): communication overhead must grow dominant", v, peak)
	}
	// AllScale still gains from 1 to its peak.
	if peak <= value(t, f, "AllScale", 1) {
		t.Error("AllScale shows no gain at all below the crossover")
	}
	// MPI keeps scaling but sublinearly at 64 nodes.
	mpiEff := value(t, f, "MPI", 64) / (64 * value(t, f, "MPI", 1))
	if mpiEff >= 1 || mpiEff < 0.3 {
		t.Errorf("MPI 64-node efficiency %.2f outside the paper-like sublinear band", mpiEff)
	}
	// Paper magnitude: ~20000 queries/s for MPI at 64 nodes.
	if v := value(t, f, "MPI", 64); v < 10000 || v > 40000 {
		t.Errorf("MPI@64 = %.0f q/s, expected paper-like ~20000", v)
	}
}

func TestFigureRenderAndLookup(t *testing.T) {
	f := Fig7Stencil()
	out := f.Render()
	for _, want := range []string{"AllScale", "MPI", "linear", "GFLOPS", "64"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
	if _, ok := f.Lookup("NoSuchSeries", 1); ok {
		t.Error("lookup of unknown series must fail")
	}
	if _, ok := f.Lookup("MPI", 3); ok {
		t.Error("lookup of unknown node count must fail")
	}
}

func TestTable1ListsAllApplications(t *testing.T) {
	out := Table1()
	for _, want := range []string{"stencil", "iPiC3D", "TPC", "kd-tree", "FLOPS", "queries per second", "48e6"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 lacks %q", want)
		}
	}
}

func TestTreeRegionAblationShape(t *testing.T) {
	rows := TreeRegionAblation([]int{10, 14}, 10*time.Millisecond)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Each row's best of three rounds: a 10 ms window that loses the
	// processor to another test measures the machine, not the scheme.
	for range 2 {
		for i, r := range TreeRegionAblation([]int{10, 14}, 10*time.Millisecond) {
			rows[i].OpsPerSecond = max(rows[i].OpsPerSecond, r.OpsPerSecond)
		}
	}
	// Blocked must beat flexible at equal height by a wide margin.
	for i := 0; i < len(rows); i += 2 {
		flex, blocked := rows[i], rows[i+1]
		if blocked.OpsPerSecond < 3*flex.OpsPerSecond {
			t.Errorf("height %d: blocked %.0f not clearly faster than flexible %.0f",
				flex.Height, blocked.OpsPerSecond, flex.OpsPerSecond)
		}
	}
}

func TestIndexAblationShape(t *testing.T) {
	rows, err := IndexAblation([]int{2, 8}, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.MsgsPerLookup <= 0 && r.Processes > 1 {
			t.Errorf("p=%d: no messages measured", r.Processes)
		}
		// O(log P) behaviour: messages per lookup comfortably below
		// 4·log2(P)+4.
		bound := 4.0*float64(log2int(r.Processes)) + 4
		if r.MsgsPerLookup > bound {
			t.Errorf("p=%d: %.1f msgs/lookup above O(log P) bound %.1f", r.Processes, r.MsgsPerLookup, bound)
		}
	}
}

func log2int(n int) int {
	l := 0
	for 1<<uint(l) < n {
		l++
	}
	return l
}

func TestSchedulerAblationShape(t *testing.T) {
	rows, err := SchedulerAblation(4, stencilapp.Params{N: 32, Steps: 3, C: 0.1, MinGrain: 64})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	aware := rows[0]
	for _, other := range rows[1:] {
		if aware.BytesMoved >= other.BytesMoved {
			t.Errorf("data-aware policy moved %d bytes, not less than %s's %d",
				aware.BytesMoved, other.Policy, other.BytesMoved)
		}
	}
}

// TestFig7Deterministic guards the reproducibility of the DES: two
// runs of the same model must produce identical series (the engine is
// seeded and single-threaded; any nondeterminism is a bug). The second
// run is the shared sweep, whose AllScale curve also fixes the linear
// reference.
func TestFig7Deterministic(t *testing.T) {
	t.Parallel()
	a, b := Fig7TPC(), sharedTPCSweep()
	base := value(t, b, "AllScale", 1)
	for _, s := range a.Series {
		for _, va := range s.Points {
			vb := base * float64(va.Nodes)
			if s.Label != "linear" {
				vb = value(t, b, s.Label, va.Nodes)
			}
			if va.Value != vb {
				t.Fatalf("series %s nodes %d: %v != %v", s.Label, va.Nodes, va.Value, vb)
			}
		}
	}
	s1, s2 := simulateStencil(32, true), simulateStencil(32, true)
	if s1 != s2 {
		t.Fatalf("stencil model nondeterministic: %v != %v", s1, s2)
	}
}

// tpcParamsForTest returns a small workload for the smoke tests.
func tpcParamsForTest() tpc.Params {
	return tpc.Params{
		NumPoints: 256, Height: 6, BlockHeight: 2,
		Radius: 60, NumQueries: 8, Seed: 9,
	}
}

func TestTPCDistributionAblationSmoke(t *testing.T) {
	rows, err := TPCDistributionAblation(2, tpcParamsForTest())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Msgs == 0 {
			t.Fatalf("%s: no messages measured", r.Scheme)
		}
	}
	out := RenderTPCDistRows(rows)
	if !strings.Contains(out, "Fig. 4c") || !strings.Contains(out, "Fig. 4b") {
		t.Fatalf("render lacks schemes:\n%s", out)
	}
}
