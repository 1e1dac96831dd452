package tpc

import (
	"math"
	"testing"
	"time"

	"allscale/internal/core"
	"allscale/internal/dim"
	"allscale/internal/runtime"
	"allscale/internal/sched"
	"allscale/internal/transport"
)

// TestTPCQueryProtocolCounts pins what the tpc-query benchmark's
// operation costs — one radius query on the read-only kd-tree of
// Params{16384, 10, 3, 30}, one worker on each of 2 localities over
// TCP, origins alternating — summed over a fixed stream of 64 queries
// in which nothing is stolen: the tasks, the RPC calls, the calls
// somebody awaited and the frames of calls and replies, and the objects
// a query allocates on both ranks, the fewest of three such batches, as
// idle workers' probes and the collector only add. While the kernel
// copied each visited node's box and every leaf point, the fragment
// looked nodes up in a map and tpc.sub rebuilt its block's region on
// every call, a query needed 239 objects (245–248 under -race, which
// drops pooled objects at random); with dense tree fragments, a
// by-pointer kernel and block regions built once it needs 187–188
// (193–199 a batch under -race). The bound is the highest of those plus
// 3 %. No replica here came by a writer's refresh — the root block is
// fetched by Load — so nothing is given back (dim.drop.given).
func TestTPCQueryProtocolCounts(t *testing.T) {
	eps, err := transport.NewTCPLoopback(2, transport.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(core.Config{Endpoints: eps, Workers: 1})
	defer sys.Close()
	const stream = 64
	p := Params{NumPoints: 16384, Height: 10, BlockHeight: 3, Radius: 30, NumQueries: stream, Seed: 1}
	app := NewAllScale(sys, p)
	sys.Start()
	if err := app.Load(); err != nil {
		t.Fatal(err)
	}
	// Where the loader's leaves ran decides where a block lives, and a
	// steal during the load can move one: put every block at its static
	// owner, so that the stream's placements are the same in every run.
	if err := app.ScatterBlocks(func(b int) int { return blockOwner(b, p.numBlocks(), sys.Size()) }); err != nil {
		t.Fatal(err)
	}
	queries, want := GenerateQueries(stream, p.Seed), RunSequential(p)
	n := 0
	query := func() {
		i := n % stream
		got, err := app.Query(n%sys.Size(), queries[i])
		n++
		if err != nil || got != want[i] {
			t.Fatalf("query %d counted %d (%v), sequential reference %d", i, got, err, want[i])
		}
	}
	for range 4 * stream {
		query()
	}
	type reading struct{ tasks, calls, awaited, frames, granted uint64 }
	read := func() reading {
		var awaited uint64
		for r := 0; r < sys.Size(); r++ {
			awaited += sys.Metrics(r).Histogram(runtime.MetricRPCRoundtrip).Snapshot().Count
		}
		return reading{
			tasks: sys.CounterSum(sched.MetricExecuted), calls: sys.CounterSum(runtime.MetricRPCCalls),
			awaited: awaited, frames: sys.CounterSum(runtime.MetricRPCCallFrames),
			granted: sys.CounterSum(sched.MetricStolenFrom),
		}
	}
	// The counts are read once no call is pending on either rank and two
	// readings 1 ms apart agree: the last fulfilment's ack may be on its
	// way, and a worker counts its task as it leaves.
	settled := func() reading {
		deadline := time.Now().Add(5 * time.Second)
		for {
			pending := 0
			for r := 0; r < sys.Size(); r++ {
				pending += sys.Locality(r).PendingCalls()
			}
			a := read()
			time.Sleep(time.Millisecond)
			if b := read(); pending == 0 && a == b {
				return a
			}
			if time.Now().After(deadline) {
				t.Fatal("the counts do not settle")
			}
		}
	}
	// AllocsPerRun runs the stream's first query once more before it
	// counts: each batch is the whole stream, from the same query on.
	const batches = 3
	allocs := math.Inf(1)
	var sums reading
	for attempt, clean := 0, 0; clean < batches; attempt++ {
		if attempt == 20 {
			t.Fatalf("%d of 20 batches of queries ran without a steal, want %d", clean, batches)
		}
		before := settled()
		batch := testing.AllocsPerRun(stream-1, query)
		after := settled()
		if after.granted != before.granted {
			continue
		}
		got := reading{tasks: after.tasks - before.tasks, calls: after.calls - before.calls,
			awaited: after.awaited - before.awaited, frames: after.frames - before.frames}
		t.Logf("%d queries: %d tasks, %d calls (%d awaited) in %d frames; %.0f allocations a query",
			stream, got.tasks, got.calls, got.awaited, got.frames, batch)
		if clean > 0 && got != sums {
			t.Errorf("the counts of one stream differ between batches: %+v, then %+v", sums, got)
		}
		sums = got
		clean++
		allocs = min(allocs, batch)
	}
	if want := (reading{tasks: 366, calls: 209, awaited: 0, frames: 209}); sums != want {
		t.Errorf("%d queries: %+v, want %+v", stream, sums, want)
	}
	if n := sys.CounterSum(dim.MetricDropGiven); n != 0 {
		t.Errorf("%s = %d over the load and the queries, want 0", dim.MetricDropGiven, n)
	}
	if allocs > 205 {
		t.Errorf("%.0f allocations a query, want at most 205", allocs)
	}
}
