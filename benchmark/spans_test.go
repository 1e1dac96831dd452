package main

import (
	"testing"

	"allscale/internal/trace"
)

func TestIntervalUnion(t *testing.T) {
	ivs := []interval{{10, 20}, {15, 30}, {40, 50}, {50, 55}, {5, 5}, {60, 58}}
	merged := mergeIntervals(ivs)
	want := []interval{{10, 30}, {40, 55}} // touching intervals join; empty and inverted ones vanish
	if len(merged) != len(want) {
		t.Fatalf("merged = %v, want %v", merged, want)
	}
	for i := range want {
		if merged[i] != want[i] {
			t.Errorf("merged[%d] = %v, want %v", i, merged[i], want[i])
		}
	}
	if got := unionLength(ivs); got != 35 {
		t.Errorf("unionLength = %d, want 35", got)
	}
	if got := unionLength(nil); got != 0 {
		t.Errorf("unionLength(nil) = %d, want 0", got)
	}
}

func TestOverlapLength(t *testing.T) {
	a := []interval{{0, 10}, {20, 30}, {40, 50}}
	b := []interval{{5, 25}, {28, 42}, {49, 60}}
	// [5,10) + [20,25) + [28,30) + [40,42) + [49,50)
	if got := overlapLength(a, b); got != 15 {
		t.Errorf("overlapLength = %d, want 15", got)
	}
	if got := overlapLength(b, a); got != 15 {
		t.Errorf("overlapLength is not symmetric: %d", got)
	}
	if got := overlapLength(a, nil); got != 0 {
		t.Errorf("overlap with nothing = %d, want 0", got)
	}
}

func span(name string, rank int, start, dur int64) trace.Span {
	return trace.Span{Name: name, Rank: rank, Start: start, Dur: dur}
}

// TestSelfTimes: a task on rank 0 acquires data, the acquisition calls
// rank 1, rank 1 serves. Every instant goes to the span that started
// last, whatever its rank, and the shares add up to the covered time.
func TestSelfTimes(t *testing.T) {
	spans := []trace.Span{
		span("task.exec", 0, 0, 100),
		span("dim.acquire", 0, 10, 50), // 10..60
		span("rpc.call", 0, 20, 30),    // 20..50, no parent link in the runtime either
		span("rpc.serve", 1, 25, 15),   // 25..40 on the other rank
		span("task.exec", 1, 200, 10),  // a later, separate task
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"task.exec":   10 + 40 + 10, // 0..10 and 60..100, plus the separate task
		"dim.acquire": 10 + 10,      // 10..20 and 50..60
		"rpc.call":    5 + 10,       // 20..25 and 40..50
		"rpc.serve":   15,
	}
	var total int64
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
		total += got[name]
	}
	if len(got) != len(want) {
		t.Errorf("self times %v have unexpected names", got)
	}
	if total != 110 {
		t.Errorf("self times add up to %d, want the 110 covered", total)
	}
}

// TestBudgetFromSpans: warm-up spans before the first op window are
// dropped, op windows are not runtime spans, and the uncovered share
// is the part of the windows no runtime span overlaps.
func TestBudgetFromSpans(t *testing.T) {
	all := []trace.Span{
		span("task.exec", 0, 0, 50), // warm-up: starts before the first window
		span(opSpan, 0, 100, 100),   // window 100..200
		span("task.exec", 0, 110, 40),
		span("rpc.serve", 1, 120, 20),
		span(opSpan, 0, 300, 100), // window 300..400
		span("task.exec", 0, 300, 70),
	}
	b := budgetFromSpans(all)
	if b.spans != 3 {
		t.Errorf("runtime spans = %d, want 3", b.spans)
	}
	if b.self["task.exec"] != 20+70 || b.self["rpc.serve"] != 20 {
		t.Errorf("self times = %v", b.self)
	}
	if _, ok := b.self[opSpan]; ok {
		t.Errorf("op windows were attributed as runtime spans: %v", b.self)
	}
	// Covered: 110..150 and 300..370 = 110 of 200.
	if want := 1 - 110.0/200.0; !near(b.uncovered, want) {
		t.Errorf("uncovered share = %v, want %v", b.uncovered, want)
	}
}
