package bench

import (
	"fmt"
	"math"
	"strings"
	"time"

	"allscale/internal/apps/tpc"
	"allscale/internal/core"
	"allscale/internal/dim"
	"allscale/internal/sched"
	"allscale/internal/simnet"
)

// E13 — locality fast path (DESIGN.md §6f): the epoch-fenced locate
// cache plus batched index resolution turn the per-placement index
// walk into a local-memory operation on the steady-state hot path.
// This file provides both halves of the E13 evidence: the Fig. 7
// TPC model re-run with cached resolution, and a real-runtime
// before/after ablation counting index RPCs per placement.

// simulateTPCAllScaleCached is simulateTPCAllScale with the locate
// cache modelled: the index-resolution CPU at the hierarchy's upper
// levels (node 0) is charged only the first time an origin resolves a
// given sub-task's owner — every later placement of the same
// requirement hits the origin-local cache and pays nothing remotely.
// Coverage never changes after TPC's load phase, so entries stay warm
// for the whole query run (the model's analogue of the zero-RPC
// steady state the runtime tests assert).
func simulateTPCAllScaleCached(nodes int) float64 {
	m := defaultTPCModel()
	cfg := simnet.DefaultConfig(nodes)
	c := simnet.New(cfg)

	subTasks := int(math.Max(1, math.Round(m.tasksPerNodeFactor*float64(nodes))))
	rootFlops := m.flopsPerQuery * m.rootShare
	subFlops := m.flopsPerQuery * (1 - m.rootShare) / float64(subTasks)

	issued := 0
	done := 0
	resolved := make(map[[2]int]bool, nodes*subTasks)

	var issue func(origin int)
	issue = func(origin int) {
		if issued >= m.queries {
			return
		}
		issued++
		c.ExecFlops(origin, rootFlops, func() {
			if nodes == 1 {
				c.ExecFlops(origin, m.flopsPerQuery*(1-m.rootShare), func() {
					done++
					issue(origin)
				})
				return
			}
			remaining := subTasks
			for k := 0; k < subTasks; k++ {
				owner := (origin + 1 + k) % nodes
				ship := func() {
					c.ExecSeconds(origin, m.taskCPU, func() {
						c.Send(origin, owner, m.taskBytes, func() {
							c.ExecSeconds(owner, m.taskCPU, func() {
								c.ExecFlops(owner, subFlops, func() {
									c.Send(owner, origin, 64, func() {
										remaining--
										if remaining == 0 {
											done++
											issue(origin)
										}
									})
								})
							})
						})
					})
				}
				key := [2]int{origin, k}
				if resolved[key] {
					// Warm cache: resolution is a local-memory hit.
					ship()
				} else {
					resolved[key] = true
					c.ExecSeconds(0, m.indexCPU, ship)
				}
			}
		})
	}

	for k := 0; k < m.inflight; k++ {
		origin := k % nodes
		c.Eng.Schedule(0, func() { issue(origin) })
	}
	total := c.Eng.Run()
	if done != m.queries {
		panic("bench: tpc cached simulation stalled")
	}
	return float64(done) / float64(total)
}

// Fig7TPCCached is the E13 counterpart of Fig7TPC: the TPC panel with
// the locate cache enabled in the model, next to the uncached curve
// and the MPI reference. The uncached curve collapses past 8 nodes
// because every placement charges the low-rank index hosts; cached,
// the per-(origin,sub-task) charge is one-time and scaling continues
// past the old peak.
func Fig7TPCCached() Figure {
	fig := Figure{ID: "E13-tpc", Title: "TPC throughput scaling with locate cache (2^29 points, r=20)", Metric: "queries/s"}
	cached := Series{Label: "AllScale+cache"}
	alls := Series{Label: "AllScale"}
	mpis := Series{Label: "MPI"}
	for _, n := range NodeSweep {
		cached.Points = append(cached.Points, Point{Nodes: n, Value: simulateTPCAllScaleCached(n)})
		alls.Points = append(alls.Points, Point{Nodes: n, Value: simulateTPCAllScale(n)})
		mpis.Points = append(mpis.Points, Point{Nodes: n, Value: simulateTPCMPI(n)})
	}
	fig.Series = []Series{cached, alls, mpis}
	return fig
}

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
