// Package bench regenerates every table and figure of the paper's
// evaluation (Section 4) plus the ablation experiments listed in
// DESIGN.md §3:
//
//   - Table 1 — the application inventory (Table1);
//   - Fig. 7 — throughput scaling of stencil, iPiC3D and TPC for
//     AllScale vs MPI vs linear on 1–64 nodes (Fig7Stencil,
//     Fig7IPiC3D, Fig7TPC), computed on the discrete-event cluster
//     model of package simnet (see DESIGN.md §4 for the substitution
//     argument);
//   - E5 — flexible vs blocked tree regions (TreeRegionAblation);
//   - E6 — hierarchical index vs flat directory (IndexAblation);
//   - E7 — scheduling policy ablation on the real runtime
//     (SchedulerAblation).
package bench

import (
	"fmt"
	"strings"
)

// NodeSweep is the node-count axis of Fig. 7.
var NodeSweep = []int{1, 2, 4, 8, 16, 32, 64}

// Point is one measurement of a series.
type Point struct {
	Nodes int
	Value float64
}

// Series is one curve of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is one reproduced figure: an axis of node counts and several
// series over it.
type Figure struct {
	ID     string
	Title  string
	Metric string
	Series []Series
}

// Render formats the figure as an aligned text table, one row per
// node count.
func (f Figure) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s [%s]\n", f.ID, f.Title, f.Metric)
	fmt.Fprintf(&b, "%8s", "nodes")
	for _, s := range f.Series {
		fmt.Fprintf(&b, " %16s", s.Label)
	}
	b.WriteString("\n")
	for i, p := range f.Series[0].Points {
		fmt.Fprintf(&b, "%8d", p.Nodes)
		for _, s := range f.Series {
			fmt.Fprintf(&b, " %16.1f", s.Points[i].Value)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Lookup returns the value of the labelled series at the given node
// count.
func (f Figure) Lookup(label string, nodes int) (float64, bool) {
	for _, s := range f.Series {
		if s.Label != label {
			continue
		}
		for _, p := range s.Points {
			if p.Nodes == nodes {
				return p.Value, true
			}
		}
	}
	return 0, false
}

// Table1 renders the application inventory of Table 1.
func Table1() string {
	var b strings.Builder
	b.WriteString("TABLE 1: List of target application codes.\n")
	rows := [][]string{
		{"Name", "Description", "Data Structure", "Problem Size", "Performance Metric"},
		{"stencil", "2D stencil kernel [PRK]", "regular 2D grid", "20,000^2 elements per node", "FLOPS"},
		{"iPiC3D", "particle-in-cell simulator", "multiple regular 3D grids", "48e6 particles per node", "particle updates per second"},
		{"TPC", "two-point-correlation search", "kd-tree", "2^29 points in [0,100)^7, radius 20", "queries per second"},
	}
	widths := make([]int, len(rows[0]))
	for _, r := range rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	for _, r := range rows {
		for i, c := range r {
			fmt.Fprintf(&b, "%-*s  ", widths[i], c)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// sweep runs the model once per node count of NodeSweep.
func sweep(label string, model func(nodes int) float64) Series {
	s := Series{Label: label}
	for _, n := range NodeSweep {
		s.Points = append(s.Points, Point{Nodes: n, Value: model(n)})
	}
	return s
}

// againstMPI fills fig with the three curves of a Fig. 7 panel: the
// AllScale and MPI models over NodeSweep, and the "linear" reference
// that extends AllScale's 1-node value.
func againstMPI(fig Figure, allscale, mpi func(nodes int) float64) Figure {
	alls := sweep("AllScale", allscale)
	base := alls.Points[0].Value
	fig.Series = []Series{alls, sweep("MPI", mpi),
		sweep("linear", func(n int) float64 { return base * float64(n) })}
	return fig
}
