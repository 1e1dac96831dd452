package bench

import (
	"strings"
	"testing"
)

// TestE13TPCCrossoverShape asserts the E13 headline on the Fig. 7 TPC
// model: with the locate cache, the AllScale throughput peak moves
// strictly beyond 8 nodes (the paper's uncached crossover), and the
// cached curve dominates the uncached one wherever index traffic
// exists. TestFig7TPCShape pins the uncached curve unchanged.
func TestE13TPCCrossoverShape(t *testing.T) {
	t.Parallel()
	f := sharedTPCSweep()
	cached := map[int]float64{}
	uncached := map[int]float64{}
	for _, n := range NodeSweep {
		cached[n] = value(t, f, "AllScale+cache", n)
		uncached[n] = value(t, f, "AllScale", n)
	}
	// Cache never hurts; from 2 nodes on it strictly helps (every
	// placement past the first consults the index in the uncached
	// model).
	for _, n := range NodeSweep {
		if cached[n] < uncached[n]*0.999 {
			t.Errorf("%d nodes: cached %.0f below uncached %.0f", n, cached[n], uncached[n])
		}
		if n >= 4 && cached[n] <= uncached[n] {
			t.Errorf("%d nodes: cached %.0f not above uncached %.0f", n, cached[n], uncached[n])
		}
	}
	// Crossover strictly beyond 8: the cached peak is past 8 nodes and
	// the curve is still gaining at 16.
	peakNodes, peak := 0, 0.0
	for _, n := range NodeSweep {
		if v := cached[n]; v > peak {
			peak, peakNodes = v, n
		}
	}
	if peakNodes <= 8 {
		t.Errorf("cached AllScale peak at %d nodes, want strictly beyond 8", peakNodes)
	}
	if cached[16] <= cached[8] {
		t.Errorf("cached AllScale stops gaining at 8 nodes (%.0f -> %.0f)", cached[8], cached[16])
	}
	// Even past its peak the cached curve stays far above the uncached
	// collapse.
	if cached[64] < 5*uncached[64] {
		t.Errorf("cached@64 %.0f not well above uncached@64 %.0f", cached[64], uncached[64])
	}
}

// TestE13LocateAblationSmoke runs the real-runtime ablation on a small
// TPC instance and asserts the acceptance ratio: ≥10× fewer
// index-resolution RPCs per placement with the cache on.
func TestE13LocateAblationSmoke(t *testing.T) {
	rows, err := LocateCacheAblation(4, tpcParamsForTest())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	off, on := rows[0], rows[1]
	if off.Placements == 0 || on.Placements == 0 {
		t.Fatalf("no placements measured: off=%d on=%d", off.Placements, on.Placements)
	}
	if off.LocateRPCs == 0 {
		t.Fatal("cache-off round performed no locate RPCs; ablation measures nothing")
	}
	if on.CacheHits == 0 {
		t.Fatal("cache-on round recorded no cache hits")
	}
	offR, onR := off.RPCsPerPlacement(), on.RPCsPerPlacement()
	if onR > 0 && offR < 10*onR {
		t.Errorf("RPCs/placement off=%.3f on=%.3f: want >= 10x reduction", offR, onR)
	}
	out := RenderLocateRows(rows)
	if !strings.Contains(out, "locate cache on") || !strings.Contains(out, "locate cache off") {
		t.Fatalf("render lacks schemes:\n%s", out)
	}
	t.Logf("\n%s", out)
}
