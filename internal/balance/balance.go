// Package balance implements inter-node load balancing through data
// migration (Sections 3.2 and 6): "by monitoring the workload
// distribution among various processes, the scheduling policy may
// decide to migrate data between nodes, which will implicitly lead to
// the redirection of future tasks to the newly designated
// localities." The balancer moves grid regions from over- to
// under-loaded localities via ordinary DIM write acquisitions; the
// data-aware scheduler (Algorithm 2) then routes subsequent tasks to
// the new owners automatically.
package balance

import (
	"fmt"
	"sort"

	"allscale/internal/core"
	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/region"
)

// Move is one executed data migration.
type Move struct {
	From, To int
	Region   dataitem.Region
	Elems    int64
}

// Options tunes the balancer.
type Options struct {
	// Tolerance is the acceptable max/mean coverage ratio; 1.0 means
	// perfectly even. Default 1.25.
	Tolerance float64
	// MaxMoves bounds the migrations per invocation. Default 16.
	MaxMoves int
	// Token must be unique among concurrently held DIM tokens.
	Token uint64
}

// RebalanceGrid evens out the fragment sizes of a grid data item by
// repeatedly migrating boxes (or parts of boxes) from the fullest to
// the emptiest locality. It must run at a quiescent point (no tasks
// using the item). It returns the executed moves.
func RebalanceGrid(sys *core.System, item dim.ItemID, opts Options) ([]Move, error) {
	if opts.Tolerance <= 1 {
		opts.Tolerance = 1.25
	}
	if opts.MaxMoves <= 0 {
		opts.MaxMoves = 16
	}
	if opts.Token == 0 {
		opts.Token = 0xBA1A_0000
	}

	// Only live members balance: latent, drained and dead ranks
	// neither donate nor receive coverage (the fabric is provisioned at
	// capacity, so rank count is not member count — DESIGN.md §6g).
	eligible := make([]bool, sys.Size())
	members := 0
	for r := range eligible {
		if sys.Peer(r).Live() {
			eligible[r] = true
			members++
		}
	}
	if members < 2 {
		return nil, nil
	}

	var moves []Move
	for iter := 0; iter < opts.MaxMoves; iter++ {
		sizes, covs, err := coverageSizes(sys, item)
		if err != nil {
			return moves, err
		}
		total := int64(0)
		for r, n := range sizes {
			if eligible[r] {
				total += n
			}
		}
		if total == 0 {
			return moves, nil
		}
		mean := float64(total) / float64(members)
		richest, poorest := argMax(sizes, eligible), argMin(sizes, eligible)
		if float64(sizes[richest]) <= opts.Tolerance*mean || richest == poorest {
			return moves, nil // balanced enough
		}

		// How many elements to move: half the richest's excess,
		// bounded by the poorest's deficit.
		excess := float64(sizes[richest]) - mean
		deficit := mean - float64(sizes[poorest])
		want := int64(excess / 2)
		if int64(deficit) < want {
			want = int64(deficit)
		}
		if want <= 0 {
			return moves, nil
		}

		donor, ok := covs[richest].(dataitem.GridRegion)
		if !ok {
			return moves, fmt.Errorf("balance: item %v is not a grid item (coverage %T)", item, covs[richest])
		}
		slice := carveGrid(donor, want)
		if slice.IsEmpty() {
			return moves, nil
		}

		// Migrate by write-acquiring the slice at the destination.
		mgr := sys.Manager(poorest)
		if err := mgr.Acquire(opts.Token, []dim.Requirement{{Item: item, Region: slice, Mode: dim.Write}}); err != nil {
			return moves, fmt.Errorf("balance: migrate to rank %d: %w", poorest, err)
		}
		mgr.Release(opts.Token)
		moves = append(moves, Move{From: richest, To: poorest, Region: slice, Elems: slice.Size()})
	}
	return moves, nil
}

// coverageSizes returns the per-rank element counts and regions.
func coverageSizes(sys *core.System, item dim.ItemID) ([]int64, []dataitem.Region, error) {
	covs, err := sys.CoverageByRank(item)
	if err != nil {
		return nil, nil, err
	}
	sizes := make([]int64, len(covs))
	for i, cov := range covs {
		sizes[i] = cov.Size()
	}
	return sizes, covs, nil
}

// carveGrid selects a sub-region of roughly `want` elements from a
// grid coverage: whole boxes first, then a prefix band of the next
// box along its widest dimension.
func carveGrid(cov dataitem.GridRegion, want int64) dataitem.GridRegion {
	boxes := cov.B.Boxes()
	sort.Slice(boxes, func(i, j int) bool { return boxes[i].Size() < boxes[j].Size() })
	out := region.BoxSet{}
	taken := int64(0)
	for _, b := range boxes {
		if taken >= want {
			break
		}
		if taken+b.Size() <= want {
			out = out.Union(region.NewBoxSet(b))
			taken += b.Size()
			continue
		}
		// Split the box: a prefix band along the widest dimension.
		widest, extent := 0, 0
		for d := 0; d < b.Dims(); d++ {
			if e := b.Max[d] - b.Min[d]; e > extent {
				widest, extent = d, e
			}
		}
		rowSize := b.Size() / int64(extent)
		rows := int((want - taken + rowSize - 1) / rowSize)
		if rows <= 0 {
			break
		}
		if rows > extent {
			rows = extent
		}
		cut := b
		cut.Min = b.Min.Clone()
		cut.Max = b.Max.Clone()
		cut.Max[widest] = b.Min[widest] + rows
		out = out.Union(region.NewBoxSet(cut))
		taken += cut.Size()
	}
	return dataitem.GridRegion{B: out}
}

func argMax(xs []int64, in []bool) int {
	best := -1
	for i, x := range xs {
		if in[i] && (best < 0 || x > xs[best]) {
			best = i
		}
	}
	return best
}

func argMin(xs []int64, in []bool) int {
	best := -1
	for i, x := range xs {
		if in[i] && (best < 0 || x < xs[best]) {
			best = i
		}
	}
	return best
}
