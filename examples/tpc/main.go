// TPC example: the two-point correlation benchmark of Section 4 — a
// kd-tree data item distributed in blocked regions (Fig. 4c), queried
// through small tasks that the data-aware scheduler (Algorithm 2)
// routes to the block owners.
//
// Run with:
//
//	go run ./examples/tpc [-points 4096] [-queries 32] [-radius 55] [-localities 4]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"allscale/internal/apps/tpc"
	"allscale/internal/core"
	"allscale/internal/sched"
	"allscale/internal/transport"
)

func main() {
	points := flag.Int("points", 4096, "number of data points")
	queries := flag.Int("queries", 32, "number of query points")
	radius := flag.Float64("radius", 55, "correlation radius")
	localities := flag.Int("localities", 4, "simulated cluster nodes")
	flag.Parse()

	p := tpc.Params{
		NumPoints:   *points,
		Height:      9, // 256 leaves
		BlockHeight: 3, // 8 distributable subtree blocks
		Radius:      *radius,
		NumQueries:  *queries,
		Seed:        11,
	}
	fmt.Printf("TPC: %d points in [0,100)^7, radius %.0f, %d queries, %d localities\n",
		*points, *radius, *queries, *localities)

	sys := core.NewSystem(core.Config{Localities: *localities})
	app := tpc.NewAllScale(sys, p)
	sys.Start()
	defer sys.Close()

	start := time.Now()
	if err := app.Load(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tree distributed over %d localities in %.1f ms\n",
		*localities, time.Since(start).Seconds()*1000)

	start = time.Now()
	counts, err := app.RunQueries(0)
	if err != nil {
		log.Fatal(err)
	}
	dur := time.Since(start)

	// Verify against the brute-force reference.
	pts := tpc.GeneratePoints(p.NumPoints, p.Seed)
	qs := tpc.GenerateQueries(p.NumQueries, p.Seed)
	for i, q := range qs {
		want := tpc.BruteForceCount(pts, q, p.Radius)
		if counts[i] != want {
			log.Fatalf("verification FAILED: query %d = %d, want %d", i, counts[i], want)
		}
	}

	var totalHits int64
	for _, c := range counts {
		totalHits += c
	}
	fmt.Printf("answered %d queries in %.1f ms (%.0f queries/s), %.1f hits/query\n",
		len(counts), dur.Seconds()*1000, float64(len(counts))/dur.Seconds(),
		float64(totalHits)/float64(len(counts)))
	fmt.Printf("tasks executed: %d, shipped between localities: %d, messages: %d\n",
		sys.CounterSum(sched.MetricExecuted), sys.CounterSum(sched.MetricRemotePlaced),
		sys.CounterSum(transport.MetricMsgsSent))
	fmt.Println("verification: OK — all counts match brute force")
}
