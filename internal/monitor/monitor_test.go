package monitor

import (
	"testing"
	"time"

	"allscale/internal/core"
	"allscale/internal/dim"
	"allscale/internal/region"
	"allscale/internal/sched"
	"allscale/internal/transport"
)

func buildSystem(t *testing.T) (*core.System, *core.Grid[int]) {
	t.Helper()
	sys := core.NewSystem(core.Config{Localities: 4})
	grid := core.DefineGrid[int](sys, "mon.grid", region.Point{64, 8})
	core.RegisterPFor(sys, core.PForSpec{
		Name:     "mon.init",
		MinGrain: 32,
		Body: func(ctx *sched.Ctx, p region.Point, _ []byte) {
			grid.Local(ctx).Set(p, 1)
		},
		Reqs: func(r core.Range, _ []byte) []dim.Requirement {
			return []dim.Requirement{{Item: grid.Item(), Region: grid.Region(r.Lo, r.Hi), Mode: dim.Write}}
		},
	})
	sys.Start()
	if err := grid.Create(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	return sys, grid
}

func TestMonitorSamplesCoverageAndLoad(t *testing.T) {
	sys, grid := buildSystem(t)
	mon := Start(sys, 5*time.Millisecond, 8)
	defer mon.Stop()

	if err := sys.PFor("mon.init", region.Point{0, 0}, region.Point{64, 8}, nil); err != nil {
		t.Fatal(err)
	}
	mon.SampleNow()

	latest, ok := mon.Latest()
	if !ok || len(latest) != 4 {
		t.Fatalf("latest = %v ok=%v", latest, ok)
	}
	var total, max int64
	for _, s := range latest {
		n := s.Coverage[grid.Item()]
		total += n
		if n > max {
			max = n
		}
	}
	if total < 64*8 {
		t.Fatalf("sampled coverage %d < %d", total, 64*8)
	}
	// The initialization spread data: no locality holds more than three
	// times the mean.
	if 4*max > 3*total {
		t.Fatalf("largest fragment %d of %d elements on 4 localities", max, total)
	}
	// Executed counters must be visible.
	execSeen := uint64(0)
	for _, s := range latest {
		execSeen += s.Metrics.Counters[sched.MetricExecuted]
	}
	if execSeen == 0 {
		t.Fatal("no executions sampled")
	}
}

func TestMonitorHistoryRing(t *testing.T) {
	sys, _ := buildSystem(t)
	mon := Start(sys, time.Hour, 3) // no automatic ticks within the test
	defer mon.Stop()
	for i := 0; i < 5; i++ {
		mon.SampleNow()
	}
	h := mon.History(0)
	if len(h) != 3 {
		t.Fatalf("ring kept %d samples, want 3", len(h))
	}
	if !h[0].When.Before(h[2].When) && h[0].When != h[2].When {
		t.Fatal("history not oldest-first")
	}
}

func TestMonitorStopIsIdempotent(t *testing.T) {
	sys, _ := buildSystem(t)
	mon := Start(sys, time.Millisecond, 4)
	mon.Stop()
	mon.Stop()
	if _, ok := mon.Latest(); !ok {
		t.Fatal("initial sample missing")
	}
}

func TestMonitorSamplesTransportCounters(t *testing.T) {
	sys, _ := buildSystem(t)
	mon := Start(sys, time.Hour, 4)
	defer mon.Stop()

	if err := sys.PFor("mon.init", region.Point{0, 0}, region.Point{64, 8}, nil); err != nil {
		t.Fatal(err)
	}
	mon.SampleNow()
	latest, ok := mon.Latest()
	if !ok {
		t.Fatal("no samples")
	}
	var msgs, errs uint64
	for _, s := range latest {
		c := s.Metrics.Counters
		msgs += c[transport.MetricMsgsSent]
		errs += c[transport.MetricSendErrors] + c[transport.MetricDroppedFrames] + c[transport.MetricReconnects]
	}
	if msgs == 0 {
		t.Fatal("pfor over 4 localities sampled zero transport messages")
	}
	if errs != 0 {
		t.Fatalf("healthy in-process fabric reported %d failures", errs)
	}
}

// TestSampleMutationDoesNotCorruptHistory pins the deep-copy contract
// of Latest/History: the maps handed out are clones, so a caller
// scribbling on a returned Sample must not alter the retained ring.
func TestSampleMutationDoesNotCorruptHistory(t *testing.T) {
	sys, grid := buildSystem(t)
	mon := Start(sys, time.Hour, 8) // sample only on demand
	defer mon.Stop()

	if err := sys.PFor("mon.init", region.Point{0, 0}, region.Point{64, 8}, nil); err != nil {
		t.Fatal(err)
	}
	mon.SampleNow()

	latest, ok := mon.Latest()
	if !ok {
		t.Fatal("no samples")
	}
	item := grid.Item()
	orig := make([]int64, len(latest))
	origExec := make([]uint64, len(latest))
	for i, s := range latest {
		orig[i] = s.Coverage[item]
		origExec[i] = s.Metrics.Counters[sched.MetricExecuted]
	}

	// Vandalize every returned sample.
	for i := range latest {
		latest[i].Coverage[item] = -999
		latest[i].Coverage[dim.MakeItemID(99, 99)] = 1
		latest[i].Metrics.Counters[sched.MetricExecuted] = 0
		delete(latest[i].Metrics.Histograms, sched.MetricTaskExec)
	}
	for rank := 0; rank < sys.Size(); rank++ {
		h := mon.History(rank)
		h[len(h)-1].Coverage[item] = -888
	}

	// The history must still hold the original values.
	again, _ := mon.Latest()
	for i, s := range again {
		if s.Coverage[item] != orig[i] {
			t.Fatalf("rank %d: history coverage corrupted: %d != %d", i, s.Coverage[item], orig[i])
		}
		if _, leaked := s.Coverage[dim.MakeItemID(99, 99)]; leaked {
			t.Fatalf("rank %d: injected key leaked into history", i)
		}
		if got := s.Metrics.Counters[sched.MetricExecuted]; got != origExec[i] {
			t.Fatalf("rank %d: history counter corrupted: %d != %d", i, got, origExec[i])
		}
		if _, ok := s.Metrics.Histograms[sched.MetricTaskExec]; !ok {
			t.Fatalf("rank %d: histogram deleted from history", i)
		}
	}
	for rank := 0; rank < sys.Size(); rank++ {
		h := mon.History(rank)
		if got := h[len(h)-1].Coverage[item]; got != orig[rank] {
			t.Fatalf("rank %d: History coverage corrupted: %d != %d", rank, got, orig[rank])
		}
	}
}

// TestSampleReadsRegistry pins what a Sample's metrics are: the
// locality registry's values under the registry's names, which in turn
// back the legacy Stats() snapshots — including a counter this package
// has never heard of.
func TestSampleReadsRegistry(t *testing.T) {
	sys, _ := buildSystem(t)
	mon := Start(sys, time.Hour, 8)
	defer mon.Stop()
	if err := sys.PFor("mon.init", region.Point{0, 0}, region.Point{64, 8}, nil); err != nil {
		t.Fatal(err)
	}
	const novel = "somelayer.new_counter"
	for rank := 0; rank < sys.Size(); rank++ {
		sys.Metrics(rank).Counter(novel).Add(uint64(rank) + 7)
	}
	mon.SampleNow()
	latest, ok := mon.Latest()
	if !ok {
		t.Fatal("no samples")
	}
	for rank, s := range latest {
		st := sys.Scheduler(rank).Stats()
		net := sys.Locality(rank).Stats()
		c := s.Metrics.Counters
		if c[sched.MetricSpawned] != st.Spawned || c[sched.MetricExecuted] != st.Executed {
			t.Fatalf("rank %d: sample (%d,%d) != sched.Stats (%d,%d)",
				rank, c[sched.MetricSpawned], c[sched.MetricExecuted], st.Spawned, st.Executed)
		}
		if c[transport.MetricMsgsSent] > net.MsgsSent {
			t.Fatalf("rank %d: sampled MsgsSent %d exceeds current transport count %d",
				rank, c[transport.MetricMsgsSent], net.MsgsSent)
		}
		if c[novel] != uint64(rank)+7 {
			t.Fatalf("rank %d: counter %q sampled as %d, want %d", rank, novel, c[novel], rank+7)
		}
	}
}
