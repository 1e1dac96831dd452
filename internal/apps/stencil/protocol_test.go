package stencil

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"allscale/internal/core"
	"allscale/internal/dim"
	"allscale/internal/region"
	"allscale/internal/runtime"
	"allscale/internal/sched"
	"allscale/internal/trace"
	"allscale/internal/transport"
)

// stepCalls runs warm-up steps of a 64² stencil on 2 in-process
// localities — each step issued as its two locality-sized halves, the
// way the stencil-halo benchmark workload issues it — then one more
// step, and returns the rpc.call spans of that last step by method,
// how many of them somebody waited for, the transport frames its calls
// and replies took, its dim.locate spans by kind, and the locate RPCs it
// cost.
func stepCalls(t *testing.T, warmup int) (calls map[string]int, awaited, frames int, locates map[string]int, locateRPCs uint64) {
	t.Helper()
	sys, step := startSteps(t, core.Config{TraceCapacity: 1 << 16})
	defer sys.Close()
	for s := 0; s < warmup; s++ {
		step(s)
	}
	total := func(name string) (sum uint64) {
		for r := 0; r < sys.Size(); r++ {
			sum += sys.Metrics(r).Counter(name).Value()
		}
		return sum
	}
	// Nobody waits for the ack of a ship, a remote fulfilment, a dim.unpin
	// (the refresh of the neighbour's halo row) or a dim.carry (a halo row
	// given back): let the last ones arrive, so that the step's frames are
	// all counted.
	settle := func() {
		deadline := time.Now().Add(5 * time.Second)
		for r := 0; r < sys.Size(); r++ {
			for sys.Locality(r).PendingCalls() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("rank %d: calls still pending", r)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
	}
	settle()
	var mark int64
	for _, sp := range trace.Merge(sys.Tracers()...) {
		if end := sp.Start + sp.Dur; end > mark {
			mark = end
		}
	}
	before := total(dim.MetricLocateRPCs)
	direct, walked := total(dim.MetricRevokeDirect), total(dim.MetricRevokeWalked)
	kept, evicted, carried, given := total(dim.MetricDropKept), total(dim.MetricDropEvicted), total(dim.MetricDropCarried), total(dim.MetricDropGiven)
	refreshed, stale := total(dim.MetricRefreshSent), total(dim.MetricRefreshStale)
	// The frames of calls and replies, counted as they arrive: once every
	// call is settled, a step's are all in, and no steal probe or rpc.acks
	// frame is among them.
	callFrames := func() uint64 { return total(runtime.MetricRPCCallFrames) }
	framesBefore, inline := callFrames(), total(runtime.MetricRPCInline)
	step(warmup)
	settle()
	frames = int(callFrames() - framesBefore)
	// The ship, the fulfilment, the two refreshes and the two give-backs
	// are served in frame order on the delivery goroutine.
	if n := total(runtime.MetricRPCInline) - inline; n != 6 {
		t.Errorf("requests served inline: %d, want 6 (every one)", n)
	}
	locateRPCs = total(dim.MetricLocateRPCs) - before
	if d, w := total(dim.MetricRevokeDirect)-direct, total(dim.MetricRevokeWalked)-walked; d != 2 || w != 0 {
		t.Errorf("write requirements settled: %d direct, %d walked, want 2 and 0", d, w)
	}
	if k, e := total(dim.MetricDropKept)-kept, total(dim.MetricDropEvicted)-evicted; k != 2 || e != 0 {
		t.Errorf("halo replicas: %d kept, %d evicted, want 2 and 0", k, e)
	}
	// Both are given back as their readers let go, each ahead of the
	// write that needs it; the ship finds the origin's copy given back
	// already, and carries nothing.
	if g, c := total(dim.MetricDropGiven)-given, total(dim.MetricDropCarried)-carried; g != 2 || c != 0 {
		t.Errorf("halo replicas given back: %d, carried by the ship: %d, want 2 and 0", g, c)
	}
	if r, s := total(dim.MetricRefreshSent)-refreshed, total(dim.MetricRefreshStale)-stale; r != 2 || s != 0 {
		t.Errorf("halo refreshes: %d sent, %d stale, want 2 and 0", r, s)
	}
	calls, locates = make(map[string]int), make(map[string]int)
	for _, sp := range trace.Merge(sys.Tracers()...) {
		if sp.Start <= mark {
			continue
		}
		switch sp.Name {
		case "rpc.call":
			calls[sp.Detail]++
			if !ackOnly[sp.Detail] {
				awaited++
			}
			// The transfers an acquisition issues hang under its span.
			if sp.Detail == "dim.drop" && sp.Parent == 0 {
				t.Errorf("rpc.call %q span of an acquisition has no parent", sp.Detail)
			}
		case "dim.locate":
			locates[sp.Detail]++
			// Placement resolves outside any acquisition.
			if !strings.HasPrefix(sp.Detail, "multi-") && sp.Parent == 0 {
				t.Errorf("dim.locate %q span of an acquisition has no parent", sp.Detail)
			}
		}
	}
	// An idle worker's probes follow the clock, not the step. None may
	// succeed: every task of this run is bound to rows its rank holds,
	// and the two initialiser leaves were placed for a parked worker
	// each. And each was paid for with a full backoff period of parked
	// time, at least 1 ms (sched's remoteStealMax less its jitter) —
	// a worker that asked whenever it ran dry would ask four times a step.
	// Attempts are read first: a worker books its parked time before it
	// asks.
	attempts := total(sched.MetricStealAttempts)
	if got := total(sched.MetricSteals); got != 0 {
		t.Errorf("%d tasks stolen, want 0: a stolen task drags its rows after it", got)
	}
	if idleUs := total(sched.MetricWorkerIdleUs); attempts*1000 > idleUs {
		t.Errorf("%d steal attempts for %d µs of parked workers, want at most one per ms", attempts, idleUs)
	}
	t.Logf("%d steal attempts in %d steps", attempts, warmup+1)
	return calls, awaited, frames, locates, locateRPCs
}

// ackOnly names the calls of a step whose callers read no reply: each
// costs one frame, its ack riding on a later one.
var ackOnly = map[string]bool{"sched.runb": true, "runtime.fulfill": true, "dim.unpin": true, "dim.carry": true}

// startSteps starts a 64² stencil on 2 in-process localities and
// returns the system and step s, issued as its two locality-sized
// halves, the way the stencil-halo benchmark workload issues it.
func startSteps(t *testing.T, cfg core.Config) (*core.System, func(s int)) {
	t.Helper()
	const n = 64
	cfg.Localities = 2
	sys := core.NewSystem(cfg)
	app := NewAllScale(sys, Params{N: n, C: 0.1, MinGrain: 2048})
	sys.Start()
	if err := app.CreateItems(); err != nil {
		t.Fatal(err)
	}
	if err := app.Init(); err != nil {
		t.Fatal(err)
	}
	halves := [2][2]region.Point{
		{{1, 1}, {n / 2, n - 1}},
		{{n / 2, 1}, {n - 1, n - 1}},
	}
	return sys, func(s int) {
		for _, h := range halves {
			if err := sys.PFor("stencil.step", h[0], h[1], []byte{byte(s % 2)}); err != nil {
				t.Fatalf("step %d: %v", s, err)
			}
		}
	}
}

func formatCalls(calls map[string]int) string {
	methods := make([]string, 0, len(calls))
	for m := range calls {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	var b strings.Builder
	for _, m := range methods {
		fmt.Fprintf(&b, " %s=%d", m, calls[m])
	}
	return b.String()
}

// TestStencilStepProtocolCounts pins the message pattern of one
// steady-state stencil step (DESIGN.md §6f, per-step table): a write
// acquisition holds the neighbour's halo replica in place through the
// owner's own sharer records and refreshes it on release — no fetch, no
// coverage change, hence no index report, no cache invalidation and no
// index walk of any kind. Each rank gives its halo replica back to its
// writer as its reader lets go, in a dim.carry notice (DESIGN.md §6f
// "Given back"), so neither write sends a dim.drop and nothing is
// awaited: the ship, the fulfilment, the two refreshes and the two
// give-backs are ack-only (DESIGN.md §6d "Deferred acks"), six calls in
// six frames, all served in frame order on the delivery goroutine
// (rpc.inline, DESIGN.md §6d "Served in frame order").
func TestStencilStepProtocolCounts(t *testing.T) {
	calls, awaited, frames, locates, locateRPCs := stepCalls(t, 20)
	total := 0
	for _, c := range calls {
		total += c
	}
	t.Logf("one step: %d calls (%d awaited) in %d frames, %d locate RPCs:%s; locates:%s", total, awaited, frames, locateRPCs, formatCalls(calls), formatCalls(locates))
	want := map[string]int{"sched.runb": 1, "runtime.fulfill": 1, "dim.carry": 2, "dim.unpin": 2}
	if formatCalls(calls) != formatCalls(want) {
		t.Errorf("calls per step:%s, want%s", formatCalls(calls), formatCalls(want))
	}
	if total != 6 || awaited != 0 || frames != 6 {
		t.Errorf("RPC calls per step = %d (%d awaited) in %d frames, want 6 (0) in 6", total, awaited, frames)
	}
	if locateRPCs != 0 {
		t.Errorf("locate RPCs per step = %d, want 0", locateRPCs)
	}
	// Both placements hit the cache; both stagings find nothing missing
	// and resolve nothing.
	if formatCalls(locates) != " multi-hit=2" {
		t.Errorf("locates per step:%s, want multi-hit=2", formatCalls(locates))
	}
	again, againAwaited, againFrames, _, againLocates := stepCalls(t, 21)
	if formatCalls(again) != formatCalls(calls) || againAwaited != awaited || againFrames != frames || againLocates != locateRPCs {
		t.Errorf("counts do not repeat: step 20%s (%d locate RPCs), step 21%s (%d)",
			formatCalls(calls), locateRPCs, formatCalls(again), againLocates)
	}
}

// TestShipCarriesOriginEviction: rank 1 never sends rank 0 a dim.drop.
// The first write of a grid after rank 0 fetched its halo row finds that
// replica read but not given back — it came by a fetch — and rank 0
// serves the shipped half's drop of it as it ships the task
// (dim.Manager.Carry): dim.drop.carried counts one. From then on rank 0
// gives the refreshed row back as its reader lets go, and the ship
// finds it given back already: it carries nothing.
func TestShipCarriesOriginEviction(t *testing.T) {
	const warmup, steps = 20, 10
	sys, step := startSteps(t, core.Config{TraceCapacity: 1 << 16})
	defer sys.Close()
	count := func(name string) (n uint64) {
		for r := 0; r < sys.Size(); r++ {
			n += sys.Metrics(r).CounterValue(name)
		}
		return n
	}
	mark := func() (at int64) {
		for _, sp := range trace.Merge(sys.Tracers()...) {
			at = max(at, sp.Start)
		}
		return at
	}
	drops := func(since int64) (n int) {
		for _, sp := range trace.Merge(sys.Tracers()[1]) {
			if sp.Start > since && sp.Name == "rpc.call" && sp.Detail == "dim.drop" {
				n++
			}
		}
		return n
	}
	// Step 0 fetches the halo rows of grid A; step 1 writes A first.
	step(0)
	at, before := mark(), count(dim.MetricDropCarried)
	step(1)
	if got := count(dim.MetricDropCarried) - before; got != 1 {
		t.Errorf("first write: %s = %d, want 1", dim.MetricDropCarried, got)
	}
	if n := drops(at); n != 0 {
		t.Errorf("first write: rank 1 sent %d dim.drop calls, want 0", n)
	}
	for s := 2; s < warmup; s++ {
		step(s)
	}
	at, before = mark(), count(dim.MetricDropCarried)
	given := count(dim.MetricDropGiven)
	for s := warmup; s < warmup+steps; s++ {
		step(s)
	}
	if got := count(dim.MetricDropCarried) - before; got != 0 {
		t.Errorf("steady state: %s = %d over %d steps, want 0", dim.MetricDropCarried, got, steps)
	}
	if got := count(dim.MetricDropGiven) - given; got != 2*steps {
		t.Errorf("steady state: %s = %d over %d steps, want two per step", dim.MetricDropGiven, got, steps)
	}
	if n := drops(at); n != 0 {
		t.Errorf("steady state: rank 1 sent %d dim.drop calls in %d steps, want 0", n, steps)
	}
}

// TestStencilStepAllocs is the allocation budget of the same
// steady-state step, every goroutine of the process counted: placement,
// staging, the lock and sharer bookkeeping, the drops, the kernel, the
// release and its refresh, the codecs and the transport. PR 25's parent
// needed 977 objects a step; its region algebra, allocating only its
// answers, and its map-free placement brought that to about 345,
// deferred acks to 331–333, one-object tasks to 330–331 (335–339
// under -race -cpu 2), and the carried eviction with an acquisition that
// copies and sorts its requirements only when they are out of item order
// to 292–294 (297–303). One delivery contract per link (no timer,
// pending-call entry or dedup record per call, frames encoded in place)
// and one-pointer box sets (an answer that is an operand is not boxed
// again) brought it to 169 (170–171; beside two CPU hogs, where owed
// acks leave more often in frames of their own, 174–175 and 174–179).
// Serving the ship and the refreshes in frame order on the delivery
// goroutine (no closure and no goroutine hand-off per request, no park
// behind a pinned replica) took it from 172–174 to 163–165 (167–171
// under -race -cpu 2, also beside two CPU hogs). Giving the halo row
// back as its reader lets go — no awaited dim.drop, no reply to decode,
// no pool goroutine to serve it — took it to 153–155 (157–159 under
// -race -cpu 2), and the bound down by the 10 objects it fell.
func TestStencilStepAllocs(t *testing.T) {
	sys, step := startSteps(t, core.Config{})
	defer sys.Close()
	s := 0
	for ; s < 20; s++ {
		step(s)
	}
	allocs := testing.AllocsPerRun(200, func() { step(s); s++ })
	t.Logf("%.0f allocations per step", allocs)
	if allocs > 166 {
		t.Errorf("%.0f allocations per step, want at most 166", allocs)
	}
}

// TestRefreshLandsBeforeTheFrameBehindIt: on each link the refresh of a
// halo replica (dim.unpin) travels ahead of the frame that lets its
// reader go on — the ship of the next half to rank 1, the fulfilment that
// wakes the step's caller on rank 0 — and both are served in frame order on the
// delivery goroutine (runtime.HandleInline), so over 50 steady-state
// steps no acquisition meets a pinned replica and none parks. Served
// from pool goroutines, the ship or the fulfilment overtook the refresh
// and about 0.9 acquisitions a step waited behind it. The give-back of
// a halo row (dim.carry) lands ahead of the write that takes it over the
// same way, so no step awaits a call. Over TCP it logs the write(2)s and
// reads a step pays: how frames batch depends on scheduling.
func TestRefreshLandsBeforeTheFrameBehindIt(t *testing.T) {
	const warmup, steps = 20, 50
	run := func(t *testing.T, cfg core.Config) {
		sys, step := startSteps(t, cfg)
		defer sys.Close()
		for s := 0; s < warmup; s++ {
			step(s)
		}
		waits := func(name string) (n uint64) {
			for r := 0; r < sys.Size(); r++ {
				n += sys.Metrics(r).Histogram(name).Snapshot().Count
			}
			return n
		}
		count := func(name string) (n uint64) {
			for r := 0; r < sys.Size(); r++ {
				n += sys.Metrics(r).CounterValue(name)
			}
			return n
		}
		refresh, lock, awaited := waits(dim.MetricRefreshWait), waits(dim.MetricLockWait), waits(runtime.MetricRPCRoundtrip)
		writes, reads := count(transport.MetricWrites), count(transport.MetricReads)
		for s := warmup; s < warmup+steps; s++ {
			step(s)
		}
		if r, l := waits(dim.MetricRefreshWait)-refresh, waits(dim.MetricLockWait)-lock; r != 0 || l != 0 {
			t.Errorf("over %d steps: %d waits behind a pinned replica (%s), %d parks (%s), want 0 and 0",
				steps, r, dim.MetricRefreshWait, l, dim.MetricLockWait)
		}
		if n := waits(runtime.MetricRPCRoundtrip) - awaited; n != 0 {
			t.Errorf("over %d steps: %d awaited calls, want 0", steps, n)
		}
		if cfg.Endpoints != nil {
			t.Logf("per step: %.2f write(2)s, %.2f reads", float64(count(transport.MetricWrites)-writes)/steps, float64(count(transport.MetricReads)-reads)/steps)
		}
	}
	t.Run("inproc", func(t *testing.T) { run(t, core.Config{}) })
	t.Run("tcp", func(t *testing.T) {
		eps, err := transport.NewTCPLoopback(2, transport.TCPConfig{})
		if err != nil {
			t.Fatal(err)
		}
		run(t, core.Config{Endpoints: eps})
	})
}
