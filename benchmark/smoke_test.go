package main

import (
	"testing"
	"time"
)

// TestWorkloadsSmoke runs every workload in this process for a
// fraction of a second: set-up, warm-up, a few timed ops, the oracle,
// and exactly the end-to-end names.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four TCP systems")
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			rep := run(runConfig{
				workload: w, seed: 7, length: 200 * time.Millisecond,
				setups: 1, scratch: t.TempDir(),
			})
			if !rep.Correct || rep.Failed != 0 || rep.Error != "" {
				t.Fatalf("correct=%v failed=%d of %d: %s", rep.Correct, rep.Failed, rep.Attempted, rep.Error)
			}
			if rep.Attempted < 3 {
				t.Errorf("only %d ops in the timed region", rep.Attempted)
			}
			if len(rep.Metrics) != len(endToEnd) {
				t.Errorf("reported %d end-to-end metrics, want %d", len(rep.Metrics), len(endToEnd))
			}
			for name, m := range rep.Metrics {
				if !(m.Value > 0) {
					t.Errorf("%s = %v, want a positive value", name, m.Value)
				}
			}
		})
	}
}

// TestTracedRunSmoke runs one traced run — counts, traced pass, layer
// probes — and checks the budget it reports on the workload whose
// counts the code alone determines.
func TestTracedRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every layer probe")
	}
	w, _ := findWorkload("spawn-tree")
	rep := run(runConfig{
		workload: w, seed: 7, length: 400 * time.Millisecond,
		trace: true, scratch: t.TempDir(),
	})
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("correct=%v failed=%d of %d: %s", rep.Correct, rep.Failed, rep.Attempted, rep.Error)
	}
	if len(rep.Metrics) != len(perLayer) {
		t.Fatalf("reported %d per-layer metrics, want %d", len(rep.Metrics), len(perLayer))
	}
	value := func(name string) float64 {
		m, ok := rep.Metrics[name]
		if !ok {
			t.Fatalf("no metric %s", name)
		}
		return m.Value
	}
	// A 4096-point range split seven levels deep: 64 leaves, 63 splits.
	if got := value("sched.tasks_per_op"); got != 127 {
		t.Errorf("sched.tasks_per_op = %v, want 127", got)
	}
	if got := value("sched.splits_per_op"); got != 63 {
		t.Errorf("sched.splits_per_op = %v, want 63", got)
	}
	if got := value("trace.dropped"); got != 0 {
		t.Errorf("trace.dropped = %v, want 0", got)
	}
	if got := value("trace.spans_per_op"); got < 127 {
		t.Errorf("trace.spans_per_op = %v, want at least one span per task", got)
	}
	if got := value("trace.uncovered_share"); got < 0 || got > 1 {
		t.Errorf("trace.uncovered_share = %v outside [0, 1]", got)
	}
	if got := value("dim.acquires_per_op"); got != 0 {
		t.Errorf("dim.acquires_per_op = %v on a requirement-free workload", got)
	}
	for _, def := range probeRows {
		if got := value(def.name); !(got > 0) {
			t.Errorf("probe %s = %v, want a positive time", def.name, got)
		}
	}
}
