package trace_test

// Cross-layer integration test: the stencil application runs on the
// in-process transport with tracing enabled, and the resulting span
// set — merged across all ranks — must form a well-formed causal DAG:
// every parent reference resolves (including cross-rank ones carried
// in the wire envelope), every exec/split span descends from a
// task.schedule span, and no span is still open once the system has
// quiesced and the tracers are stopped.

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"allscale/internal/apps/stencil"
	"allscale/internal/core"
	"allscale/internal/trace"
	"allscale/internal/transport"
)

// runTracedStencil runs the stencil on four traced localities — over
// the given endpoints, or the in-process fabric when there are none —
// and requires that no span is left open afterwards.
func runTracedStencil(t *testing.T, eps []transport.Endpoint, minGrain int64) (*core.System, []trace.Span) {
	t.Helper()
	p := stencil.Params{N: 32, Steps: 3, C: 0.1, MinGrain: minGrain}
	want := stencil.RunSequential(p)

	sys := core.NewSystem(core.Config{Localities: 4, Endpoints: eps, TraceCapacity: 1 << 16})
	app := stencil.NewAllScale(sys, p)
	sys.Start()
	if err := app.Run(); err != nil {
		t.Fatal(err)
	}
	got, err := app.Result()
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("traced run diverges from sequential reference at cell %d", i)
		}
	}
	sys.Close()

	tracers := sys.Tracers()
	if len(tracers) != 4 {
		t.Fatalf("got %d tracers, want 4", len(tracers))
	}
	for _, tr := range tracers {
		tr.Stop()
	}
	// The system has quiesced (all futures resolved, system closed), so
	// every span must already be ended; allow a brief grace period for
	// handler goroutines that are past their last span but not yet
	// exited, then require exactly zero.
	deadline := time.Now().Add(2 * time.Second)
	for _, tr := range tracers {
		for tr.Active() != 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := tr.Active(); n != 0 {
			t.Errorf("rank %d: %d spans still active after Stop — span leak", tr.Rank(), n)
		}
		if d := tr.Dropped(); d != 0 {
			t.Errorf("rank %d: ring dropped %d spans; enlarge TraceCapacity for this test", tr.Rank(), d)
		}
	}
	return sys, trace.Merge(tracers...)
}

// TestStencilTCPNoSpanLeaks is the same run over TCP loopback sockets:
// handlers and task bodies there run on the localities' reused
// goroutines, and every one of them must have closed its spans by the
// time the system has stopped.
func TestStencilTCPNoSpanLeaks(t *testing.T) {
	eps, err := transport.NewTCPLoopback(4, transport.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range eps {
		t.Cleanup(func() { ep.Close() })
	}
	_, spans := runTracedStencil(t, eps, 64)
	if err := trace.VerifyParents(spans); err != nil {
		t.Fatalf("span DAG broken: %v", err)
	}
}

func TestStencilSpanDAGWellFormed(t *testing.T) {
	sys, spans := runTracedStencil(t, nil, 64)
	if len(spans) == 0 {
		t.Fatal("traced run produced no spans")
	}

	// Every parent reference — including the cross-rank ones carried in
	// the RPC envelope and the TaskSpec — must resolve within the set.
	if err := trace.VerifyParents(spans); err != nil {
		t.Fatalf("span DAG broken: %v", err)
	}

	byID := make(map[trace.SpanID]trace.Span, len(spans))
	count := make(map[string]int)
	for _, sp := range spans {
		byID[sp.ID] = sp
		count[sp.Name]++
	}
	for _, name := range []string{
		"task.spawn", "task.schedule", "task.exec", "task.split",
		"rpc.call", "rpc.serve", "dim.acquire", "dim.locate",
	} {
		if count[name] == 0 {
			t.Errorf("no %q spans recorded — layer not instrumented?", name)
		}
	}

	// Every exec/split span must have a task.schedule ancestor: the
	// lifecycle chain spawn → schedule → exec survives placement.
	for _, sp := range spans {
		if sp.Name != "task.exec" && sp.Name != "task.split" {
			continue
		}
		found := false
		for p := sp.Parent; p != 0; {
			ps, ok := byID[p]
			if !ok {
				break
			}
			if ps.Name == "task.schedule" {
				found = true
				break
			}
			p = ps.Parent
		}
		if !found {
			t.Errorf("%s span %#x (task %#x) has no task.schedule ancestor",
				sp.Name, uint64(sp.ID), sp.Task)
		}
	}

	// At least one causality edge must cross ranks: a 4-locality
	// stencil places tasks remotely, so some span's parent was issued
	// on a different rank.
	crossRank := 0
	for _, sp := range spans {
		if sp.Parent != 0 && sp.Parent.Rank() != sp.Rank {
			crossRank++
		}
	}
	if crossRank == 0 {
		t.Error("no cross-rank parent edges — wire envelope span propagation broken")
	}

	// The Chrome exporter must emit well-formed trace_event JSON.
	var buf bytes.Buffer
	if err := sys.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   *float64       `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) < len(spans) {
		t.Fatalf("chrome trace has %d events for %d spans", len(doc.TraceEvents), len(spans))
	}
	for _, ev := range doc.TraceEvents {
		if ev.Name == "" {
			t.Fatal("chrome event without name")
		}
		switch ev.Ph {
		case "X":
			if ev.Ts == nil || ev.Dur <= 0 {
				t.Fatalf("complete event %q lacks ts/dur", ev.Name)
			}
			if ev.Pid < 0 || ev.Pid >= 4 {
				t.Fatalf("event %q has pid %d outside rank range", ev.Name, ev.Pid)
			}
			if _, ok := ev.Args["id"]; !ok {
				t.Fatalf("event %q lacks span id arg", ev.Name)
			}
		case "M":
			// metadata (process_name)
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}
}

// TestTracingDisabledIsInert pins the nil-safety contract every
// instrumentation site relies on: without TraceCapacity the system
// has no tracers, Spawn/exec paths run with nil spans, and the
// application result is unaffected.
func TestTracingDisabledIsInert(t *testing.T) {
	p := stencil.Params{N: 16, Steps: 2, C: 0.1, MinGrain: 64}
	want := stencil.RunSequential(p)
	got, err := stencil.RunAllScale(2, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("untraced run diverges at cell %d", i)
		}
	}
	var nilTr *trace.Tracer
	if sp := nilTr.Begin("x", "", 0); sp != nil {
		t.Fatal("nil tracer issued a span")
	}
	var nilSp *trace.Span
	nilSp.SetTask(1)
	nilSp.SetErr(nil)
	nilSp.End() // must not panic
	if id := nilSp.SpanID(); id != 0 {
		t.Fatalf("nil span has ID %#x", uint64(id))
	}
}
