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
	"allscale/internal/trace"
)

// stepCalls runs warm-up steps of a 64² stencil on 2 in-process
// localities — each step issued as its two locality-sized halves, the
// way the stencil-halo benchmark workload issues it — then one more
// step, and returns the rpc.call spans of that last step by method,
// its dim.locate spans by kind, and the locate RPCs it cost.
func stepCalls(t *testing.T, warmup int) (calls, locates map[string]int, locateRPCs uint64) {
	t.Helper()
	const n = 64
	sys := core.NewSystem(core.Config{Localities: 2, TraceCapacity: 1 << 16})
	app := NewAllScale(sys, Params{N: n, C: 0.1, MinGrain: 2048})
	sys.Start()
	defer sys.Close()
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
	step := func(s int) {
		for _, h := range halves {
			if err := sys.PFor("stencil.step", h[0], h[1], []byte{byte(s % 2)}); err != nil {
				t.Fatalf("step %d: %v", s, err)
			}
		}
	}
	for s := 0; s < warmup; s++ {
		step(s)
	}
	total := func(name string) (sum uint64) {
		for r := 0; r < sys.Size(); r++ {
			sum += sys.Metrics(r).Counter(name).Value()
		}
		return sum
	}
	// Nobody waits for a dim.unpin: let the last one be answered, so
	// that its span is archived on the side of the mark it belongs to.
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
	step(warmup)
	settle()
	locateRPCs = total(dim.MetricLocateRPCs) - before
	if d, w := total(dim.MetricRevokeDirect)-direct, total(dim.MetricRevokeWalked)-walked; d != 2 || w != 0 {
		t.Errorf("write requirements settled: %d direct, %d walked, want 2 and 0", d, w)
	}
	calls, locates = make(map[string]int), make(map[string]int)
	for _, sp := range trace.Merge(sys.Tracers()...) {
		if sp.Start <= mark {
			continue
		}
		switch sp.Name {
		case "rpc.call":
			calls[sp.Detail]++
		case "dim.locate":
			locates[sp.Detail]++
			if sp.Detail != "multi-walk" && sp.Parent == 0 {
				t.Errorf("dim.locate %q span of an acquisition has no parent", sp.Detail)
			}
		}
	}
	return calls, locates, locateRPCs
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
// acquisition revokes the neighbour's halo replica through the owner's
// own sharer records, never through an index walk.
func TestStencilStepProtocolCounts(t *testing.T) {
	calls, locates, locateRPCs := stepCalls(t, 20)
	total := 0
	for _, c := range calls {
		total += c
	}
	t.Logf("one step: %d calls, %d locate RPCs:%s; locates:%s", total, locateRPCs, formatCalls(calls), formatCalls(locates))
	// "owners" is the authoritative walk only write acquisitions run
	// (dim.resolveAll from rank 1, a local descent plus dim.resolveBatch
	// from rank 0); the one dim.resolveAll left is rank 1's read
	// resolving its missing halo row ("owners-walk").
	if c := locates["owners"]; c != 0 {
		t.Errorf("write acquisitions walked the index %d times", c)
	}
	if c := calls["dim.resolveAll"]; c > 1 {
		t.Errorf("dim.resolveAll calls = %d, want rank 1's read walk only", c)
	}
	if locateRPCs > 3 {
		t.Errorf("locate RPCs per step = %d, want <= 3", locateRPCs)
	}
	if total > 13 {
		t.Errorf("RPC calls per step = %d, want <= 13", total)
	}
	again, _, againLocates := stepCalls(t, 21)
	if formatCalls(again) != formatCalls(calls) || againLocates != locateRPCs {
		t.Errorf("counts do not repeat: step 20%s (%d locate RPCs), step 21%s (%d)",
			formatCalls(calls), locateRPCs, formatCalls(again), againLocates)
	}
}
