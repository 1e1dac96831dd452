package bench

import (
	"fmt"
	"strings"
	"time"

	"allscale/internal/apps/tpc"
	"allscale/internal/core"
	"allscale/internal/sched"
	"allscale/internal/transport"
)

// TPCDistRow is one measurement of the TPC distribution ablation.
type TPCDistRow struct {
	Scheme    string
	LoadMs    float64
	QueryMs   float64
	Msgs      uint64
	RemoteRun uint64
}

// TPCDistributionAblation runs the real TPC application twice on the
// same workload: once with the default contiguous block placement
// (the coarse Fig. 4c blocking the prototype favours) and once with
// the blocks scattered round-robin across localities (the arbitrary
// distributions the flexible Fig. 4b scheme enables). Scattering
// fragments every locality's coverage into a union of many disjoint
// subtrees, which shows up as more messages and slower queries — the
// end-to-end cost behind the representation trade-off measured
// micro-architecturally by E5.
func TPCDistributionAblation(localities int, p tpc.Params) ([]TPCDistRow, error) {
	if localities <= 0 {
		localities = 4
	}
	if p.NumPoints == 0 {
		p = tpc.Params{
			NumPoints: 1024, Height: 8, BlockHeight: 4,
			Radius: 55, NumQueries: 24, Seed: 5,
		}
	}
	var rows []TPCDistRow
	for _, scatter := range []bool{false, true} {
		scheme := "contiguous blocks (Fig. 4c)"
		if scatter {
			scheme = "scattered subtrees (Fig. 4b)"
		}
		sys := core.NewSystem(core.Config{Localities: localities})
		app := tpc.NewAllScale(sys, p)
		sys.Start()

		start := time.Now()
		if err := app.Load(); err != nil {
			sys.Close()
			return nil, fmt.Errorf("%s: load: %w", scheme, err)
		}
		if scatter {
			// Re-place every block round-robin: block b moves to rank
			// (b*5+1) mod P — a runtime data-management decision using
			// ordinary write acquisitions.
			if err := app.ScatterBlocks(func(b int) int { return (b*5 + 1) % localities }); err != nil {
				sys.Close()
				return nil, fmt.Errorf("%s: scatter: %w", scheme, err)
			}
		}
		loadMs := float64(time.Since(start).Microseconds()) / 1000

		baseMsgs := sys.CounterSum(transport.MetricMsgsSent)
		baseRemote := sys.CounterSum(sched.MetricRemotePlaced)
		start = time.Now()
		counts, err := app.RunQueries(0)
		if err != nil {
			sys.Close()
			return nil, fmt.Errorf("%s: query: %w", scheme, err)
		}
		queryMs := float64(time.Since(start).Microseconds()) / 1000

		// Cross-check counts against the sequential reference.
		want := tpc.RunSequential(p)
		for i := range want {
			if counts[i] != want[i] {
				sys.Close()
				return nil, fmt.Errorf("%s: query %d = %d, want %d", scheme, i, counts[i], want[i])
			}
		}
		rows = append(rows, TPCDistRow{
			Scheme:    scheme,
			LoadMs:    loadMs,
			QueryMs:   queryMs,
			Msgs:      sys.CounterSum(transport.MetricMsgsSent) - baseMsgs,
			RemoteRun: sys.CounterSum(sched.MetricRemotePlaced) - baseRemote,
		})
		sys.Close()
	}
	return rows, nil
}

// RenderTPCDistRows formats the ablation results.
func RenderTPCDistRows(rows []TPCDistRow) string {
	var b strings.Builder
	b.WriteString("E5b — TPC distribution schemes on the real runtime\n")
	fmt.Fprintf(&b, "%-30s  %9s  %9s  %9s  %11s\n", "scheme", "load ms", "query ms", "msgs", "remote runs")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s  %9.1f  %9.1f  %9d  %11d\n", r.Scheme, r.LoadMs, r.QueryMs, r.Msgs, r.RemoteRun)
	}
	return b.String()
}
