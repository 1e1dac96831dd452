package sched

import (
	"testing"

	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/runtime"
	"allscale/internal/wire"
)

// benchArgs carries a wire codec so the benchmark measures the
// scheduling data plane, not the gob fallback of argument encoding.
type benchArgs struct{ V uint64 }

func (a *benchArgs) AppendWire(buf []byte) ([]byte, error) {
	return wire.AppendUvarint(buf, a.V), nil
}

func (a *benchArgs) UnmarshalWire(d *wire.Decoder) error {
	a.V = d.Uvarint()
	return nil
}

// benchCluster builds an n-locality in-process system with a
// registered no-op task kind.
func benchCluster(b *testing.B, n, workers int, policy Policy) ([]*Scheduler, func()) {
	b.Helper()
	sys := runtime.NewSystem(n)
	scheds := make([]*Scheduler, n)
	for i := 0; i < n; i++ {
		reg := dataitem.NewRegistry()
		s := New(sys.Locality(i), dim.New(sys.Locality(i), reg), policy, workers)
		s.Register(&Kind{
			Name:    "noop",
			Process: func(ctx *Ctx) (any, error) { return nil, nil },
		})
		scheds[i] = s
	}
	sys.Start()
	return scheds, func() {
		for _, s := range scheds {
			s.StopQueue()
		}
		sys.Close()
	}
}

// BenchmarkFineGrainSpawn is the scheduler fast-path microbenchmark
// (EXPERIMENTS.md E12): spawn-to-complete throughput of minimal
// process-variant tasks through the run queue. "1loc" isolates the
// local enqueue/dequeue/wakeup path; "4loc" spawns everything at rank
// 0 under LocalPolicy so the other localities only obtain work through
// the steal tier, exercising steal batching.
func BenchmarkFineGrainSpawn(b *testing.B) {
	run := func(b *testing.B, n int, policy Policy) {
		scheds, stop := benchCluster(b, n, 4, policy)
		defer stop()
		b.ReportAllocs()
		b.ResetTimer()
		const window = 512
		futs := make([]*runtime.Future, 0, window)
		flush := func() {
			for _, f := range futs {
				if _, err := f.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			futs = futs[:0]
		}
		for i := 0; i < b.N; i++ {
			fut, err := scheds[0].Spawn("noop", &benchArgs{V: uint64(i)})
			if err != nil {
				b.Fatal(err)
			}
			futs = append(futs, fut)
			if len(futs) == window {
				flush()
			}
		}
		flush()
	}
	b.Run("1loc", func(b *testing.B) { run(b, 1, &DefaultPolicy{}) })
	b.Run("4loc-steal", func(b *testing.B) { run(b, 4, &LocalPolicy{}) })
	b.Run("4loc-spread", func(b *testing.B) { run(b, 4, &RoundRobinPolicy{}) })

	// serial measures the spawn-to-complete latency of a dependent
	// chain — each task is spawned only after the previous one
	// finished, so an idle-poll worker loop pays its full backoff on
	// every single task.
	b.Run("serial", func(b *testing.B) {
		scheds, stop := benchCluster(b, 1, 4, &DefaultPolicy{})
		defer stop()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			fut, err := scheds[0].Spawn("noop", &benchArgs{V: uint64(i)})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := fut.Wait(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
