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
	// Nobody waits for the ack of a ship, a remote fulfilment or a
	// dim.unpin (the refresh of the neighbour's halo row): let the last
	// ones arrive, so that the step's frames are all counted.
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
	kept, evicted, carried := total(dim.MetricDropKept), total(dim.MetricDropEvicted), total(dim.MetricDropCarried)
	refreshed, stale := total(dim.MetricRefreshSent), total(dim.MetricRefreshStale)
	// The frames of calls and replies, counted as they arrive: once every
	// call is settled, a step's are all in, and no steal probe or rpc.acks
	// frame is among them.
	callFrames := func() uint64 { return total(runtime.MetricRPCCallFrames) }
	framesBefore := callFrames()
	step(warmup)
	settle()
	frames = int(callFrames() - framesBefore)
	locateRPCs = total(dim.MetricLocateRPCs) - before
	if d, w := total(dim.MetricRevokeDirect)-direct, total(dim.MetricRevokeWalked)-walked; d != 2 || w != 0 {
		t.Errorf("write requirements settled: %d direct, %d walked, want 2 and 0", d, w)
	}
	if k, e := total(dim.MetricDropKept)-kept, total(dim.MetricDropEvicted)-evicted; k != 2 || e != 0 {
		t.Errorf("halo replicas: %d kept, %d evicted, want 2 and 0", k, e)
	}
	// The shipped half's drop of rank 0's copy rides in its frame.
	if c := total(dim.MetricDropCarried) - carried; c != 1 {
		t.Errorf("drops carried by the ship: %d, want 1", c)
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
var ackOnly = map[string]bool{"sched.runb": true, "runtime.fulfill": true, "dim.unpin": true}

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
// index walk of any kind. The shipped half's drop of rank 0's replica is
// served by rank 0 as it ships the task and rides in the frame (DESIGN.md
// §6f "Carried evictions"), so only rank 0's own dim.drop is awaited: the
// ship, the fulfilment and the two refreshes are ack-only (DESIGN.md §6d
// "Deferred acks"), and the five calls take six frames.
func TestStencilStepProtocolCounts(t *testing.T) {
	calls, awaited, frames, locates, locateRPCs := stepCalls(t, 20)
	total := 0
	for _, c := range calls {
		total += c
	}
	t.Logf("one step: %d calls (%d awaited) in %d frames, %d locate RPCs:%s; locates:%s", total, awaited, frames, locateRPCs, formatCalls(calls), formatCalls(locates))
	want := map[string]int{"sched.runb": 1, "runtime.fulfill": 1, "dim.drop": 1, "dim.unpin": 2}
	if formatCalls(calls) != formatCalls(want) {
		t.Errorf("calls per step:%s, want%s", formatCalls(calls), formatCalls(want))
	}
	if total != 5 || awaited != 1 || frames != 6 {
		t.Errorf("RPC calls per step = %d (%d awaited) in %d frames, want 5 (1) in 6", total, awaited, frames)
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

// TestShipCarriesOriginEviction: in steady-state steps rank 0 serves
// the shipped half's drop of its halo replica as it ships the task
// (dim.Manager.Carry), so rank 1 never sends rank 0 a dim.drop, and
// dim.drop.carried counts one per step.
func TestShipCarriesOriginEviction(t *testing.T) {
	const warmup, steps = 20, 10
	sys, step := startSteps(t, core.Config{TraceCapacity: 1 << 16})
	defer sys.Close()
	for s := 0; s < warmup; s++ {
		step(s)
	}
	carried := func() (n uint64) {
		for r := 0; r < sys.Size(); r++ {
			n += sys.Metrics(r).CounterValue(dim.MetricDropCarried)
		}
		return n
	}
	var mark int64
	for _, sp := range trace.Merge(sys.Tracers()...) {
		mark = max(mark, sp.Start)
	}
	before := carried()
	for s := warmup; s < warmup+steps; s++ {
		step(s)
	}
	if got := carried() - before; got != steps {
		t.Errorf("%s = %d over %d steps, want one per step", dim.MetricDropCarried, got, steps)
	}
	drops := 0
	for _, sp := range trace.Merge(sys.Tracers()[1]) {
		if sp.Start > mark && sp.Name == "rpc.call" && sp.Detail == "dim.drop" {
			drops++
		}
	}
	if drops != 0 {
		t.Errorf("rank 1 sent %d dim.drop calls in %d steps, want 0", drops, steps)
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
// The bound is the highest of those plus 3 %.
func TestStencilStepAllocs(t *testing.T) {
	sys, step := startSteps(t, core.Config{})
	defer sys.Close()
	s := 0
	for ; s < 20; s++ {
		step(s)
	}
	allocs := testing.AllocsPerRun(200, func() { step(s); s++ })
	t.Logf("%.0f allocations per step", allocs)
	if allocs > 185 {
		t.Errorf("%.0f allocations per step, want at most 185", allocs)
	}
}
