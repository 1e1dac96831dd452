// Quickstart: a managed 2-d grid data item and a pfor loop — the
// minimal AllScale program (compare Fig. 6b of the paper).
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"allscale/internal/core"
	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/region"
	"allscale/internal/sched"
)

func main() {
	// A simulated cluster of 4 nodes inside this process. Each node
	// is its own address space; all data access goes through managed
	// data item fragments.
	sys := core.NewSystem(core.Config{Localities: 4})
	defer sys.Close()

	// Grid<float64,2> A({256,256}) — a managed data item.
	grid := core.DefineGrid[float64](sys, "quickstart.A", region.Point{256, 256})

	// pfor({0,0},{256,256}, A[p] = x+y) with its data requirements.
	// The runtime uses the write requirement to place tasks and to
	// distribute the grid by first touch.
	core.RegisterPFor(sys, core.PForSpec{
		Name: "init",
		Body: func(ctx *sched.Ctx, p region.Point, _ []byte) {
			grid.Local(ctx).Set(p, float64(p[0]+p[1]))
		},
		Reqs: func(r core.Range, _ []byte) []dim.Requirement {
			return []dim.Requirement{{
				Item:   grid.Item(),
				Region: grid.Region(r.Lo, r.Hi),
				Mode:   dim.Write,
			}}
		},
	})

	sys.Start()
	if err := grid.Create(); err != nil {
		log.Fatal(err)
	}
	if err := sys.PFor("init", region.Point{0, 0}, region.Point{256, 256}, nil); err != nil {
		log.Fatal(err)
	}

	// The runtime distributed the grid across the localities:
	covs, err := sys.CoverageByRank(grid.Item())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("fragment distribution after initialization:")
	for rank, cov := range covs {
		fmt.Printf("  locality %d holds %5d elements: %v\n", rank, cov.Size(), cov)
	}

	// Reading through the façade replicates the needed region locally.
	var sum float64
	err = grid.Read(grid.FullRegion(), func(f *dataitem.GridFragment[float64]) {
		for x := 0; x < 256; x++ {
			for y := 0; y < 256; y++ {
				sum += f.At(region.Point{x, y})
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sum over all elements: %.0f (expected %.0f)\n", sum, 256.0*256*255)

	fmt.Printf("tasks executed: %d (%d split, %d shipped between localities)\n",
		sys.CounterSum(sched.MetricExecuted), sys.CounterSum(sched.MetricSplits),
		sys.CounterSum(sched.MetricRemotePlaced))
}
