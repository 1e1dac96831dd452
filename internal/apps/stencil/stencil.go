// Package stencil implements the 2-d stencil kernel of the paper's
// evaluation (Sections 3.4 and 4, derived from the Parallel Research
// Kernels): a five-point heat-diffusion update over an N×N grid,
// ping-ponging between two buffers. Three implementations share one
// parameter set and produce bit-identical results:
//
//   - RunSequential — the reference code of Fig. 6a;
//   - AllScale — the managed-data-item version of Fig. 6b (two Grid
//     items, pfor with halo read requirements);
//   - RunMPI — the hand-distributed reference with explicit row-band
//     decomposition and ghost-row exchange.
package stencil

import (
	"fmt"

	"allscale/internal/core"
	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/mpi"
	"allscale/internal/region"
	"allscale/internal/sched"
)

// Params configures one stencil run.
type Params struct {
	// N is the grid edge length.
	N int
	// Steps is the number of time steps.
	Steps int
	// C is the diffusion coefficient.
	C float64
	// MinGrain bounds pfor splitting (AllScale version only).
	MinGrain int64
}

// FlopsPerCell is the floating-point operations per cell update, the
// basis of the paper's GFLOPS metric for this kernel.
const FlopsPerCell = 6

// InitValue is the common initial field: deterministic, non-uniform.
func InitValue(x, y int) float64 {
	return float64((x*31+y*17)%97) / 97.0
}

// update computes one cell update from the four-neighborhood; all
// implementations share it, making results bit-identical.
func update(center, left, right, up, down, c float64) float64 {
	return center + c*(up+down+left+right-4*center)
}

// UpdateRow is the kernel every implementation runs: one row of one
// time step. dst[i] is the update of mid[i+1], whose neighbours are
// mid[i] and mid[i+2] in its own row and up[i] and down[i] in the rows
// above and below; up, down and mid may be longer than they need to be.
func UpdateRow(dst, up, mid, down []float64, c float64) {
	n := len(dst)
	up, mid, down = up[:n], mid[:n+2], down[:n]
	for i := range dst {
		dst[i] = update(mid[i+1], mid[i], mid[i+2], up[i], down[i], c)
	}
}

// StepRange runs one time step over the cells of r: src is the buffer
// read (r and its one-cell halo), dst the one written (r). Rows that lie
// in one block of each fragment go through UpdateRow on the fragments'
// own storage; a row that crosses blocks is updated cell by cell.
func StepRange(src, dst *dataitem.GridFragment[float64], r core.Range, c float64) {
	y0, y1 := r.Lo[1], r.Hi[1]
	w := y1 - y0
	for x := r.Lo[0]; x < r.Hi[0]; x++ {
		out, ok := dst.Row(region.Point{x, y0}, w)
		up, okUp := src.Row(region.Point{x - 1, y0}, w)
		mid, okMid := src.Row(region.Point{x, y0 - 1}, w+2)
		down, okDown := src.Row(region.Point{x + 1, y0}, w)
		if ok && okUp && okMid && okDown {
			UpdateRow(out, up, mid, down, c)
			continue
		}
		for y := y0; y < y1; y++ {
			dst.Set(region.Point{x, y}, update(
				src.At(region.Point{x, y}),
				src.At(region.Point{x, y - 1}),
				src.At(region.Point{x, y + 1}),
				src.At(region.Point{x - 1, y}),
				src.At(region.Point{x + 1, y}),
				c,
			))
		}
	}
}

// FillRange stores value(x, y) in every cell of r.
func FillRange(dst *dataitem.GridFragment[float64], r core.Range, value func(x, y int) float64) {
	y0, y1 := r.Lo[1], r.Hi[1]
	for x := r.Lo[0]; x < r.Hi[0]; x++ {
		if row, ok := dst.Row(region.Point{x, y0}, y1-y0); ok {
			for i := range row {
				row[i] = value(x, y0+i)
			}
			continue
		}
		for y := y0; y < y1; y++ {
			dst.Set(region.Point{x, y}, value(x, y))
		}
	}
}

// RunSequential computes the reference result as a row-major N×N
// field (Fig. 6a; both buffers carry the initial field so boundary
// reads are well defined).
func RunSequential(p Params) []float64 {
	n := p.N
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			a[x*n+y] = InitValue(x, y)
			b[x*n+y] = InitValue(x, y)
		}
	}
	for t := 0; t < p.Steps; t++ {
		for x := 1; x < n-1; x++ {
			UpdateRow(b[x*n+1:x*n+n-1], a[(x-1)*n+1:], a[x*n:], a[(x+1)*n+1:], p.C)
		}
		a, b = b, a
	}
	return a
}

// AllScale is the managed version: two 2-d grid data items and two
// pfor call sites (initialization and the time-step update).
type AllScale struct {
	sys    *core.System
	params Params
	grids  [2]*core.Grid[float64] // ping-pong buffers
}

// NewAllScale defines the data items and pfor kinds on the system;
// must run before sys.Start.
func NewAllScale(sys *core.System, p Params) *AllScale {
	if p.MinGrain <= 0 {
		p.MinGrain = 1024
	}
	s := &AllScale{sys: sys, params: p}
	size := region.Point{p.N, p.N}
	s.grids[0] = core.DefineGrid[float64](sys, "stencil.A", size)
	s.grids[1] = core.DefineGrid[float64](sys, "stencil.B", size)

	core.RegisterPFor(sys, core.PForSpec{
		Name:     "stencil.init",
		MinGrain: p.MinGrain,
		RangeBody: func(ctx *sched.Ctx, r core.Range, extra []byte) {
			FillRange(s.grids[extra[0]].Local(ctx), r, InitValue)
		},
		Reqs: func(r core.Range, extra []byte) []dim.Requirement {
			g := s.grids[extra[0]]
			return []dim.Requirement{{
				Item: g.Item(), Region: g.Region(r.Lo, r.Hi), Mode: dim.Write,
			}}
		},
	})

	core.RegisterPFor(sys, core.PForSpec{
		Name:     "stencil.step",
		MinGrain: p.MinGrain,
		RangeBody: func(ctx *sched.Ctx, r core.Range, extra []byte) {
			StepRange(s.grids[extra[0]].Local(ctx), s.grids[1-extra[0]].Local(ctx), r, p.C)
		},
		Reqs: s.stepReqs,
	})
	return s
}

// stepReqs states what a time step over r needs: the source buffer on r
// expanded by the one-cell halo, the destination buffer on r.
func (s *AllScale) stepReqs(r core.Range, extra []byte) []dim.Requirement {
	src := s.grids[extra[0]]
	dst := s.grids[1-extra[0]]
	halo := region.Point{r.Lo[0] - 1, r.Lo[1] - 1}
	haloHi := region.Point{r.Hi[0] + 1, r.Hi[1] + 1}
	return []dim.Requirement{
		{Item: src.Item(), Region: src.Region(halo, haloHi), Mode: dim.Read},
		{Item: dst.Item(), Region: dst.Region(r.Lo, r.Hi), Mode: dim.Write},
	}
}

// CreateItems introduces the two grid data items to the runtime
// without initializing them; must run after sys.Start. Separated from
// Run so a checkpoint restore can re-populate freshly created items.
func (s *AllScale) CreateItems() error {
	for _, g := range s.grids {
		if err := g.Create(); err != nil {
			return err
		}
	}
	return nil
}

// Init runs the initializer loop nest over both buffers.
func (s *AllScale) Init() error {
	n := s.params.N
	for i := range s.grids {
		if err := s.sys.PFor("stencil.init", region.Point{0, 0}, region.Point{n, n}, []byte{byte(i)}); err != nil {
			return err
		}
	}
	return nil
}

// RunSteps executes time steps [from, to); buffer roles are selected
// by step parity, so a restarted run continues exactly where a
// checkpoint was taken.
func (s *AllScale) RunSteps(from, to int) error {
	n := s.params.N
	for t := from; t < to; t++ {
		parity := byte(t % 2)
		if err := s.sys.PFor("stencil.step", region.Point{1, 1}, region.Point{n - 1, n - 1}, []byte{parity}); err != nil {
			return fmt.Errorf("step %d: %w", t, err)
		}
	}
	return nil
}

// Run creates the items and executes the whole computation; must run
// after sys.Start.
func (s *AllScale) Run() error {
	if err := s.CreateItems(); err != nil {
		return err
	}
	if err := s.Init(); err != nil {
		return err
	}
	return s.RunSteps(0, s.params.Steps)
}

// Result gathers the final field (the buffer written last, or the
// initial buffer for zero steps) as a row-major slice.
func (s *AllScale) Result() ([]float64, error) {
	n := s.params.N
	final := s.grids[s.params.Steps%2]
	out := make([]float64, n*n)
	err := final.Read(final.FullRegion(), func(f *dataitem.GridFragment[float64]) {
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				out[x*n+y] = f.At(region.Point{x, y})
			}
		}
	})
	return out, err
}

// Destroy releases the data items.
func (s *AllScale) Destroy() error {
	for _, g := range s.grids {
		if err := g.Destroy(); err != nil {
			return err
		}
	}
	return nil
}

// RunAllScale is the one-call convenience wrapper: build a system of
// the given size, run, gather, tear down.
func RunAllScale(localities int, p Params) ([]float64, error) {
	return runAllScale(core.Config{Localities: localities}, p)
}

func runAllScale(cfg core.Config, p Params) ([]float64, error) {
	sys := core.NewSystem(cfg)
	app := NewAllScale(sys, p)
	sys.Start()
	defer sys.Close()
	if err := app.Run(); err != nil {
		return nil, err
	}
	return app.Result()
}

// RunMPI executes the hand-distributed reference version on `ranks`
// MPI-style processes with row-band decomposition and ghost-row
// exchange, returning the gathered field at rank 0.
func RunMPI(ranks int, p Params) ([]float64, error) {
	n := p.N
	w := mpi.NewWorld(ranks)
	defer w.Close()

	result := make([]float64, n*n)
	const (
		tagUp     = 1 // to the rank above (lower index)
		tagDown   = 2
		tagGather = 3
	)

	err := w.Run(func(c *mpi.Comm) error {
		rank, size := c.Rank(), c.Size()
		lo := rank * n / size
		hi := (rank + 1) * n / size
		rows := hi - lo
		if rows <= 0 {
			// Degenerate tiny grids: idle rank still participates in
			// the gather.
			if rank != 0 {
				return c.SendValue(0, tagGather, []float64{})
			}
			return fmt.Errorf("stencil: rank 0 has no rows (N too small)")
		}
		// Local band with one ghost row above and below.
		width := n
		buf := func() []float64 {
			b := make([]float64, (rows+2)*width)
			for x := lo - 1; x <= hi; x++ {
				if x < 0 || x >= n {
					continue
				}
				for y := 0; y < width; y++ {
					b[(x-lo+1)*width+y] = InitValue(x, y)
				}
			}
			return b
		}
		a, b := buf(), buf()

		for t := 0; t < p.Steps; t++ {
			// Ghost exchange: send first own row up, receive ghost
			// from below, and vice versa.
			if rank > 0 {
				if err := c.SendValue(rank-1, tagUp, a[width:2*width]); err != nil {
					return err
				}
			}
			if rank < size-1 {
				if err := c.SendValue(rank+1, tagDown, a[rows*width:(rows+1)*width]); err != nil {
					return err
				}
			}
			if rank < size-1 {
				var ghost []float64
				if err := c.RecvValue(rank+1, tagUp, &ghost); err != nil {
					return err
				}
				copy(a[(rows+1)*width:], ghost)
			}
			if rank > 0 {
				var ghost []float64
				if err := c.RecvValue(rank-1, tagDown, &ghost); err != nil {
					return err
				}
				copy(a[0:width], ghost)
			}
			// Update the interior cells of the band.
			for x := lo; x < hi; x++ {
				if x == 0 || x == n-1 {
					continue
				}
				li := x - lo + 1 // local row index
				UpdateRow(b[li*width+1:li*width+n-1], a[(li-1)*width+1:], a[li*width:], a[(li+1)*width+1:], p.C)
			}
			a, b = b, a
		}

		// Gather at rank 0.
		own := make([]float64, rows*width)
		copy(own, a[width:(rows+1)*width])
		if rank != 0 {
			return c.SendValue(0, tagGather, own)
		}
		copy(result[lo*width:], own)
		for r := 1; r < size; r++ {
			var band []float64
			if err := c.RecvValue(r, tagGather, &band); err != nil {
				return err
			}
			rlo := r * n / size
			copy(result[rlo*width:], band)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return result, nil
}
