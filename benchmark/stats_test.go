package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 10}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.5, 3}, {1, 10}, {0.25, 2}, {0.875, 7}, // 0.875 → rank 3.5, halfway between 4 and 10
	} {
		if got := quantile(sorted, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{7}, 0.99); got != 7 {
		t.Errorf("single-element quantile = %v, want 7", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty quantile = %v, want NaN", got)
	}
	if got := median([]float64{9, 1, 5, 3}); !near(got, 4) {
		t.Errorf("median of unsorted even-length input = %v, want 4", got)
	}
}

func TestBestAndSpread(t *testing.T) {
	runs := []float64{5.2, 4.8, 6.0}
	if got := best(runs, true); got != 4.8 {
		t.Errorf("best lower-is-better = %v, want 4.8", got)
	}
	if got := best(runs, false); got != 6.0 {
		t.Errorf("best higher-is-better = %v, want 6.0", got)
	}
	if got, want := spread(runs), (6.0-4.8)/5.2; !near(got, want) {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
	if runs[0] != 5.2 || runs[2] != 6.0 {
		t.Errorf("inputs reordered: %v", runs)
	}
}

func TestRecorderCountsFailures(t *testing.T) {
	errNoEcho := errors.New("no echo")
	r := recorder{t0: time.Now()}
	r.op(r.t0, time.Millisecond, nil)
	r.op(r.t0, time.Millisecond, errNoEcho)
	r.op(r.t0, 2*time.Millisecond, nil)
	if r.attempted != 3 || r.failed != 1 || len(r.lat) != 2 || r.firstErr != errNoEcho {
		t.Errorf("attempted=%d failed=%d latencies=%d firstErr=%v", r.attempted, r.failed, len(r.lat), r.firstErr)
	}
	var sum recorder
	sum.merge(&r)
	sum.merge(&r)
	if sum.attempted != 6 || sum.failed != 2 || len(sum.lat) != 4 {
		t.Errorf("merged: attempted=%d failed=%d latencies=%d", sum.attempted, sum.failed, len(sum.lat))
	}
}

func TestJudge(t *testing.T) {
	v := func(value, spread float64) ledgerValue { return ledgerValue{Value: value, Spread: spread} }
	for _, c := range []struct {
		name     string
		old, new ledgerValue
		lower    bool
		bound    float64
		want     string
	}{
		{"within bound", v(10, 0.02), v(10.5, 0.02), true, 0.10, flat},
		{"slower", v(10, 0.02), v(11.5, 0.02), true, 0.10, regressed},
		{"faster", v(10, 0.02), v(8, 0.02), true, 0.10, improved},
		{"higher is better, dropped", v(100, 0.01), v(80, 0.01), false, 0.10, regressed},
		{"higher is better, rose", v(100, 0.01), v(120, 0.01), false, 0.10, improved},
		{"old side too noisy", v(10, 0.30), v(20, 0.02), true, 0.10, unresolved},
		{"new side too noisy", v(10, 0.02), v(20, 0.30), true, 0.10, unresolved},
	} {
		if _, got := judge(c.old, c.new, c.lower, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if delta, _ := judge(v(10, 0), v(12, 0), true, 0.1); !near(delta, 0.2) {
		t.Errorf("delta = %v, want 0.2", delta)
	}
}

// TestPacedQuantile: two windows measured at different paces give the
// same adjusted latency; windows short of ops or of pace samples are
// left out; a region too small for any window falls back to the whole.
func TestPacedQuantile(t *testing.T) {
	const width = time.Second
	var opAt, paceAt []time.Duration
	var lat, paces []float64
	window := func(start time.Duration, ops, samples int, latency, pace float64) {
		for i := 0; i < ops; i++ {
			opAt = append(opAt, start+time.Duration(i)*time.Millisecond)
			lat = append(lat, latency)
		}
		for i := 0; i < samples; i++ {
			paceAt = append(paceAt, start+time.Duration(i)*time.Millisecond)
			paces = append(paces, pace)
		}
	}
	window(0, 20, 20, 2.0, 1.0)       // a quiet window: 2 ms at pace 1
	window(width, 20, 20, 3.0, 1.5)   // the same op on a machine 1.5 times slower
	window(2*width, 20, 20, 4.4, 2.0) // a slightly slower op at pace 2: 2.2
	window(3*width, 3, 20, 100, 1.0)  // too few ops
	window(4*width, 20, 2, 100, 1.0)  // too few pace samples
	if got := pacedQuantile(opAt, lat, paceAt, paces, 0.5, width); !near(got, 2.0) {
		t.Errorf("median over windows = %v, want 2.0", got)
	}
	// One sparse window only: whole-region quantile over the mean pace.
	if got := pacedQuantile(opAt[:3], []float64{1, 2, 9}, paceAt[:2], []float64{1, 3}, 0.5, width); !near(got, 1.0) {
		t.Errorf("fallback = %v, want 2 / 2 = 1.0", got)
	}
}
