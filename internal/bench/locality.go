package bench

import (
	"fmt"
	"strings"
	"time"

	"allscale/internal/apps/tpc"
	"allscale/internal/core"
	"allscale/internal/dim"
	"allscale/internal/sched"
)

// E13 — locality fast path (DESIGN.md §6f): the epoch-fenced locate
// cache plus batched index resolution turn the per-placement index
// walk into a local-memory operation on the steady-state hot path.
// This file holds the real-runtime half of the E13 evidence, a
// before/after ablation counting index RPCs per placement; the other
// half is the Fig. 7 TPC model re-run with cached resolution
// (Fig7TPCCached).

// LocateRow is one measurement of the real-runtime locate ablation.
type LocateRow struct {
	Scheme     string
	QueryMs    float64
	Placements uint64 // tasks spawned during the measured query round
	LocateRPCs uint64 // outgoing index-resolution frames (dim.locate_rpcs)
	Locates    uint64 // logical resolutions (dim.locates)
	CacheHits  uint64
	CacheMiss  uint64
}

// RPCsPerPlacement returns the E13 headline ratio.
func (r LocateRow) RPCsPerPlacement() float64 {
	if r.Placements == 0 {
		return 0
	}
	return float64(r.LocateRPCs) / float64(r.Placements)
}

// LocateCacheAblation runs the real TPC application on `localities`
// ranks twice — locate cache off, then on — and measures the warm
// second query round of each run: index-resolution RPC frames,
// logical resolutions, and cache hit counters per spawned task. The
// first round warms fragments (and, when enabled, the cache); the
// second round is the steady state E13 reports.
func LocateCacheAblation(localities int, p tpc.Params) ([]LocateRow, error) {
	if localities <= 0 {
		localities = 4
	}
	if p.NumPoints == 0 {
		p = tpc.Params{
			NumPoints: 1024, Height: 8, BlockHeight: 4,
			Radius: 55, NumQueries: 24, Seed: 5,
		}
	}
	var rows []LocateRow
	for _, cacheOn := range []bool{false, true} {
		scheme := "locate cache off"
		if cacheOn {
			scheme = "locate cache on"
		}
		sys := core.NewSystem(core.Config{Localities: localities})
		app := tpc.NewAllScale(sys, p)
		sys.Start()
		for rank := 0; rank < sys.Size(); rank++ {
			sys.Manager(rank).SetLocateCache(cacheOn)
		}
		if err := app.Load(); err != nil {
			sys.Close()
			return nil, fmt.Errorf("%s: load: %w", scheme, err)
		}
		// Round 1: warm fragments and (if enabled) the cache.
		if _, err := app.RunQueries(0); err != nil {
			sys.Close()
			return nil, fmt.Errorf("%s: warm round: %w", scheme, err)
		}
		baseRPCs := sys.CounterSum(dim.MetricLocateRPCs)
		baseLocates := sys.CounterSum(dim.MetricLocates)
		baseHits := sys.CounterSum(dim.MetricLocateCacheHits)
		baseMiss := sys.CounterSum(dim.MetricLocateCacheMisses)
		baseSpawned := sys.CounterSum(sched.MetricSpawned)

		start := time.Now()
		counts, err := app.RunQueries(0)
		if err != nil {
			sys.Close()
			return nil, fmt.Errorf("%s: measured round: %w", scheme, err)
		}
		queryMs := float64(time.Since(start).Microseconds()) / 1000
		want := tpc.RunSequential(p)
		for i := range want {
			if counts[i] != want[i] {
				sys.Close()
				return nil, fmt.Errorf("%s: query %d = %d, want %d", scheme, i, counts[i], want[i])
			}
		}
		rows = append(rows, LocateRow{
			Scheme:     scheme,
			QueryMs:    queryMs,
			Placements: sys.CounterSum(sched.MetricSpawned) - baseSpawned,
			LocateRPCs: sys.CounterSum(dim.MetricLocateRPCs) - baseRPCs,
			Locates:    sys.CounterSum(dim.MetricLocates) - baseLocates,
			CacheHits:  sys.CounterSum(dim.MetricLocateCacheHits) - baseHits,
			CacheMiss:  sys.CounterSum(dim.MetricLocateCacheMisses) - baseMiss,
		})
		sys.Close()
	}
	return rows, nil
}

// RenderLocateRows formats the ablation results.
func RenderLocateRows(rows []LocateRow) string {
	var b strings.Builder
	b.WriteString("E13 — locate-cache ablation: warm TPC query round on the real runtime\n")
	fmt.Fprintf(&b, "%-18s  %9s  %10s  %11s  %9s  %9s  %9s  %13s\n",
		"scheme", "query ms", "placements", "locate RPCs", "locates", "hits", "misses", "RPCs/placemt")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s  %9.1f  %10d  %11d  %9d  %9d  %9d  %13.3f\n",
			r.Scheme, r.QueryMs, r.Placements, r.LocateRPCs, r.Locates, r.CacheHits, r.CacheMiss, r.RPCsPerPlacement())
	}
	return b.String()
}
