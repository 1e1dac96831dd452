package sched

import "testing"

// TestAdaptivePolicyZeroHonored is the regression test for the PR 6
// config bug: explicitly set zero fields were silently replaced by the
// defaults (1/3/4), so the headroom and load threshold could not be
// configured off.
func TestAdaptivePolicyZeroHonored(t *testing.T) {
	p := &AdaptivePolicy{BaseExtraDepth: 0, MaxExtraDepth: 0, LowLoad: 0}
	starved := func() int64 { return 0 } // empty queue, no parked worker — would split given any headroom
	p.BindQueueSignals(starved, starved)
	// 8 ranks: log2ceil(8) = 3. With zero base headroom, depth 2 still
	// splits but depth 3 must process — even though the locality is
	// starved, because MaxExtraDepth=0 leaves no load-driven band.
	if v := p.PickVariant(&TaskSpec{Depth: 2}, true, 8); v != VariantSplit {
		t.Fatal("depth below log2(P) must split")
	}
	if v := p.PickVariant(&TaskSpec{Depth: 3}, true, 8); v != VariantProcess {
		t.Fatal("explicit zero headroom not honored: depth log2(P) must process")
	}
	// LowLoad=0 disables load-driven splitting (load < 0 never holds)
	// even with extra depth available.
	pz := &AdaptivePolicy{BaseExtraDepth: 0, MaxExtraDepth: 2, LowLoad: 0}
	pz.BindQueueSignals(starved, starved)
	if v := pz.PickVariant(&TaskSpec{Depth: 3}, true, 8); v != VariantProcess {
		t.Fatal("LowLoad=0 must disable load-driven splitting")
	}
	// Negative fields still select the defaults (base 1 → depth 3
	// splits).
	pn := &AdaptivePolicy{BaseExtraDepth: -1, MaxExtraDepth: -1, LowLoad: -1}
	if v := pn.PickVariant(&TaskSpec{Depth: 3}, true, 8); v != VariantSplit {
		t.Fatal("negative sentinel must select the default headroom")
	}
	// NewAdaptivePolicy materializes the documented defaults.
	pd := NewAdaptivePolicy()
	if pd.BaseExtraDepth != 1 || pd.MaxExtraDepth != 3 || pd.LowLoad != 4 {
		t.Fatalf("NewAdaptivePolicy() = %+v, want {1 3 4}", pd)
	}
}

// TestAdaptivePolicyQueueSignals checks the Algorithm 2 feedback the
// scheduler wires up: within the load-driven band, parked workers force
// splitting and a deep run queue stops it.
func TestAdaptivePolicyQueueSignals(t *testing.T) {
	p := NewAdaptivePolicy()
	var depth, idle int64
	p.BindQueueSignals(func() int64 { return depth }, func() int64 { return idle })
	at := log2ceil(8) + p.BaseExtraDepth // first depth past the guaranteed band

	depth, idle = 100, 2 // parked workers win over a deep queue
	if v := p.PickVariant(&TaskSpec{Depth: at}, true, 8); v != VariantSplit {
		t.Fatal("idle workers must force splitting")
	}
	depth, idle = 100, 0 // all workers busy, deep queue: stop splitting
	if v := p.PickVariant(&TaskSpec{Depth: at}, true, 8); v != VariantProcess {
		t.Fatal("deep queue must stop splitting")
	}
	depth, idle = 0, 0 // all workers busy but the queue is dry: split
	if v := p.PickVariant(&TaskSpec{Depth: at}, true, 8); v != VariantSplit {
		t.Fatal("short queue must keep splitting")
	}
	// The band still closes at MaxExtraDepth regardless of signals.
	depth, idle = 0, 2
	if v := p.PickVariant(&TaskSpec{Depth: at + p.MaxExtraDepth}, true, 8); v != VariantProcess {
		t.Fatal("MaxExtraDepth must bound signal-driven splitting")
	}
}
