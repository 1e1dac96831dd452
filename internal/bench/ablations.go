package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	stencilapp "allscale/internal/apps/stencil"
	"allscale/internal/core"
	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/region"
	"allscale/internal/runtime"
	"allscale/internal/sched"
	"allscale/internal/transport"
)

// ---------------------------------------------------------------
// E5: flexible (Fig. 4b) vs blocked (Fig. 4c) tree regions
// ---------------------------------------------------------------

// TreeRegionRow is one measurement of the tree-region ablation.
type TreeRegionRow struct {
	Height       int
	Scheme       string
	OpsPerSecond float64
	// Partitions counts the distinct 2-fragment distributions the
	// scheme can express for the measured height (flexibility).
	Granularity string
}

// TreeRegionAblation measures set-operation throughput of the two
// tree region schemes of Section 3.1. The blocked scheme trades
// flexibility (whole blocks only) for much cheaper operations.
func TreeRegionAblation(heights []int, duration time.Duration) []TreeRegionRow {
	if len(heights) == 0 {
		heights = []int{12, 16, 20}
	}
	var rows []TreeRegionRow
	for _, h := range heights {
		rng := rand.New(rand.NewSource(int64(h)))

		// Blocked regions: random block masks at blocking height h/2.
		bh := h / 2
		if bh < 1 {
			bh = 1
		}
		blocked := make([]region.BlockedTreeRegion, 16)
		for i := range blocked {
			r := region.NewBlockedTreeRegion(h, bh)
			for j := 0; j < r.Blocks()/4+1; j++ {
				r = r.WithBlock(rng.Intn(r.Blocks()))
			}
			blocked[i] = r
		}
		// The same regions in the flexible scheme.
		flex := make([]region.TreeRegion, len(blocked))
		for i, r := range blocked {
			flex[i] = r.ToTreeRegion()
		}
		ops := 0
		deadline := time.Now().Add(duration)
		for time.Now().Before(deadline) {
			a, b := flex[ops%len(flex)], flex[(ops+7)%len(flex)]
			_ = a.Union(b)
			_ = a.Intersect(b)
			_ = a.Difference(b)
			ops += 3
		}
		elapsed := duration.Seconds()
		rows = append(rows, TreeRegionRow{
			Height: h, Scheme: "flexible (Fig. 4b)",
			OpsPerSecond: float64(ops) / elapsed,
			Granularity:  "arbitrary node sets",
		})

		ops = 0
		deadline = time.Now().Add(duration)
		for time.Now().Before(deadline) {
			a, b := blocked[ops%len(blocked)], blocked[(ops+7)%len(blocked)]
			_ = a.Union(b)
			_ = a.Intersect(b)
			_ = a.Difference(b)
			ops += 3
		}
		rows = append(rows, TreeRegionRow{
			Height: h, Scheme: fmt.Sprintf("blocked h=%d (Fig. 4c)", bh),
			OpsPerSecond: float64(ops) / elapsed,
			Granularity:  fmt.Sprintf("%d whole blocks", 1<<uint(bh)+1),
		})
	}
	return rows
}

// RenderTreeRegionRows formats the E5 results.
func RenderTreeRegionRows(rows []TreeRegionRow) string {
	var b strings.Builder
	b.WriteString("E5 — tree region schemes (Fig. 4b vs 4c): set-operation throughput\n")
	fmt.Fprintf(&b, "%8s  %-22s  %14s  %s\n", "height", "scheme", "ops/s", "granularity")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d  %-22s  %14.0f  %s\n", r.Height, r.Scheme, r.OpsPerSecond, r.Granularity)
	}
	return b.String()
}

// ---------------------------------------------------------------
// E6: hierarchical index (Fig. 5 / Alg. 1) vs flat directory
// ---------------------------------------------------------------

// IndexRow is one measurement of the index ablation.
type IndexRow struct {
	Processes        int
	MsgsPerLookup    float64 // measured, hierarchical index
	FlatBroadcast    float64 // P-1: ask every other process
	CentralDirectory float64 // 2: ask one central server (hotspot)
}

// IndexAblation measures the real message cost of Algorithm 1 lookups
// against the analytic cost of flat alternatives. Each process owns a
// contiguous band of a grid item; lookups query random multi-band
// spans from random ranks.
func IndexAblation(processCounts []int, lookups int) ([]IndexRow, error) {
	if len(processCounts) == 0 {
		processCounts = []int{2, 4, 8, 16}
	}
	if lookups <= 0 {
		lookups = 50
	}
	var rows []IndexRow
	for _, p := range processCounts {
		sys := runtime.NewSystem(p)
		managers := make([]*dim.Manager, p)
		typ := dataitem.NewGridType[int]("idx.field", region.Point{16 * p, 16})
		for i := 0; i < p; i++ {
			reg := dataitem.NewRegistry()
			reg.MustRegister(typ)
			managers[i] = dim.New(sys.Locality(i), reg)
		}
		sys.Start()

		id, err := managers[0].CreateItem(typ)
		if err != nil {
			sys.Close()
			return nil, err
		}
		for i := 0; i < p; i++ {
			band := dataitem.GridRegionFromTo(region.Point{16 * i, 0}, region.Point{16 * (i + 1), 16})
			if err := managers[i].Acquire(uint64(i+1), []dim.Requirement{{Item: id, Region: band, Mode: dim.Write}}); err != nil {
				sys.Close()
				return nil, err
			}
			managers[i].Release(uint64(i + 1))
		}

		msgsSent := func() (n uint64) {
			for i := 0; i < p; i++ {
				n += sys.Locality(i).Metrics().CounterValue(transport.MetricMsgsSent)
			}
			return n
		}
		baseline := msgsSent()
		rng := rand.New(rand.NewSource(int64(p)))
		for q := 0; q < lookups; q++ {
			from := rng.Intn(p)
			lo := rng.Intn(16 * p)
			hi := lo + 1 + rng.Intn(16*p-lo)
			span := dataitem.GridRegionFromTo(region.Point{lo, 0}, region.Point{hi, 16})
			if _, err := managers[from].Lookup(id, span); err != nil {
				sys.Close()
				return nil, err
			}
		}
		total := msgsSent()
		sys.Close()

		rows = append(rows, IndexRow{
			Processes:        p,
			MsgsPerLookup:    float64(total-baseline) / float64(lookups),
			FlatBroadcast:    float64(p - 1),
			CentralDirectory: 2,
		})
	}
	return rows, nil
}

// RenderIndexRows formats the E6 results.
func RenderIndexRows(rows []IndexRow) string {
	var b strings.Builder
	b.WriteString("E6 — region location resolution (Alg. 1): messages per lookup\n")
	fmt.Fprintf(&b, "%10s  %14s  %16s  %18s\n", "processes", "hierarchical", "flat broadcast", "central directory")
	for _, r := range rows {
		fmt.Fprintf(&b, "%10d  %14.2f  %16.1f  %18.1f\n", r.Processes, r.MsgsPerLookup, r.FlatBroadcast, r.CentralDirectory)
	}
	return b.String()
}

// ---------------------------------------------------------------
// E7: scheduling-policy ablation (Alg. 2) on the real runtime
// ---------------------------------------------------------------

// SchedulerRow is one measurement of the policy ablation.
type SchedulerRow struct {
	Policy        string
	BytesMoved    uint64  // transport payload volume of the whole run
	DataAwareness float64 // fraction of placements satisfying requirements (lines 4–9)
	WallMillis    float64
}

// SchedulerAblation runs the real stencil application under two
// scheduling policies and reports how much data each one moves: the
// data-aware Algorithm 2 routes update tasks to the fragment owners,
// while round-robin placement keeps migrating fragments.
func SchedulerAblation(localities int, params stencilapp.Params) ([]SchedulerRow, error) {
	if localities <= 0 {
		localities = 4
	}
	if params.N == 0 {
		params = stencilapp.Params{N: 48, Steps: 4, C: 0.1, MinGrain: 128}
	}
	policies := []struct {
		name string
		mk   func() sched.Policy
	}{
		{"data-aware (Alg. 2 + hierarchy)", func() sched.Policy { return &sched.DefaultPolicy{} }},
		{"round-robin placement", func() sched.Policy { return &sched.RoundRobinPolicy{} }},
	}
	var rows []SchedulerRow
	for _, pol := range policies {
		sys := core.NewSystem(core.Config{Localities: localities, Policy: pol.mk()})
		app := stencilapp.NewAllScale(sys, params)
		sys.Start()
		start := time.Now()
		if err := app.Run(); err != nil {
			sys.Close()
			return nil, fmt.Errorf("policy %s: %w", pol.name, err)
		}
		wall := time.Since(start)
		aware := 0.0
		if executed := sys.CounterSum(sched.MetricExecuted); executed > 0 {
			aware = float64(sys.CounterSum(sched.MetricCoveredAll)+sys.CounterSum(sched.MetricCoveredWrite)) / float64(executed)
		}
		moved := sys.CounterSum(transport.MetricBytesSent)
		sys.Close()
		rows = append(rows, SchedulerRow{
			Policy:        pol.name,
			BytesMoved:    moved,
			DataAwareness: aware,
			WallMillis:    float64(wall.Microseconds()) / 1000,
		})
	}
	return rows, nil
}

// RenderSchedulerRows formats the E7 results.
func RenderSchedulerRows(rows []SchedulerRow) string {
	var b strings.Builder
	b.WriteString("E7 — scheduling policies (Alg. 2) on the real runtime (stencil)\n")
	fmt.Fprintf(&b, "%-34s  %14s  %14s  %10s\n", "policy", "bytes moved", "data-aware %", "wall ms")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-34s  %14d  %14.1f  %10.1f\n", r.Policy, r.BytesMoved, 100*r.DataAwareness, r.WallMillis)
	}
	return b.String()
}
