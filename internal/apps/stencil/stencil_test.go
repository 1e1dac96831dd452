package stencil

import (
	"math"
	"testing"

	"allscale/internal/core"
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
