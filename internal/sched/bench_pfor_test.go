package sched_test

import (
	"testing"

	"allscale/internal/core"
	"allscale/internal/region"
	"allscale/internal/sched"
)

// BenchmarkFineGrainSpawnPFor is the case BenchmarkFineGrainSpawn
// (EXPERIMENTS.md E12) missed: it spawns with a one-field argument
// that carries its own codec, while every real pfor task carries
// core's pforArgs struct, encoded at each spawn and decoded by the
// variant body and, where they are consulted, CanSplit and Reqs
// (core/codec.go). One iteration is a requirement-free pfor over 64
// points split down to single leaves — 127 tasks — through
// core.RegisterPFor on one locality with four workers; ns/op ÷ 127 is
// the per-task cost with struct arguments on the path. It lives in the
// external test package because core imports sched.
func BenchmarkFineGrainSpawnPFor(b *testing.B) {
	sys := core.NewSystem(core.Config{Workers: 4, Policy: &sched.DefaultPolicy{ExtraDepth: 6}})
	core.RegisterPFor(sys, core.PForSpec{
		Name:     "bench.leaf",
		MinGrain: 1,
		Body:     func(*sched.Ctx, region.Point, []byte) {},
	})
	sys.Start()
	defer sys.Close()
	extra := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.PFor("bench.leaf", region.Point{0}, region.Point{64}, extra); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if executed := sys.CounterSum(sched.MetricExecuted); executed != uint64(b.N)*127 {
		b.Fatalf("executed %d tasks in %d trees, want 127 per tree", executed, b.N)
	}
}
