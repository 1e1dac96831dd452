package ipic3d

import (
	"fmt"
	"sort"

	"allscale/internal/core"
	"allscale/internal/dataitem"
	"allscale/internal/mpi"
	"allscale/internal/region"
)

// Run creates the items and executes the simulation; must run after
// sys.Start.
func (a *AllScale) Run() error {
	n := a.params.N
	grids := []interface{ Create() error }{a.e[0], a.e[1], a.b, a.rho, a.pcur, a.pmid}
	for _, g := range grids {
		if err := g.Create(); err != nil {
			return err
		}
	}
	zero := region.Point{0, 0, 0}
	full := region.Point{n, n, n}
	if err := a.sys.PFor("ipic.init", zero, full, nil); err != nil {
		return err
	}
	for t := 0; t < a.params.Steps; t++ {
		parity := []byte{byte(t % 2)}
		if err := a.sys.PFor("ipic.push", zero, full, parity); err != nil {
			return fmt.Errorf("push %d: %w", t, err)
		}
		if err := a.sys.PFor("ipic.collect", zero, full, nil); err != nil {
			return fmt.Errorf("collect %d: %w", t, err)
		}
		if err := a.sys.PFor("ipic.fields", zero, full, parity); err != nil {
			return fmt.Errorf("fields %d: %w", t, err)
		}
	}
	return nil
}

// Snapshot gathers the final cells and E field for verification.
func (a *AllScale) Snapshot() (*State, error) {
	n := a.params.N
	s := &State{
		N:     n,
		E:     make([]Vec3, n*n*n),
		B:     make([]Vec3, n*n*n),
		Rho:   make([]float64, n*n*n),
		Cells: make([]Cell, n*n*n),
	}
	eFinal := a.e[a.params.Steps%2]
	err := eFinal.Read(eFinal.FullRegion(), func(f *dataitem.GridFragment[Vec3]) {
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				for z := 0; z < n; z++ {
					s.E[s.idx(x, y, z)] = f.At(region.Point{x, y, z})
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	err = a.pcur.Read(a.pcur.FullRegion(), func(f *dataitem.GridFragment[Cell]) {
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				for z := 0; z < n; z++ {
					s.Cells[s.idx(x, y, z)] = f.At(region.Point{x, y, z})
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// RunAllScale is the one-call wrapper.
func RunAllScale(localities int, p Params) (*State, error) {
	return runAllScale(core.Config{Localities: localities}, p)
}

func runAllScale(cfg core.Config, p Params) (*State, error) {
	sys := core.NewSystem(cfg)
	app := NewAllScale(sys, p)
	sys.Start()
	defer sys.Close()
	if err := app.Run(); err != nil {
		return nil, err
	}
	return app.Snapshot()
}

// SortCell orders the particles of a cell by ID, establishing the
// canonical form used to compare implementations.
func SortCell(c *Cell) {
	sort.Slice(c.Parts, func(i, j int) bool { return c.Parts[i].ID < c.Parts[j].ID })
}

// Canonical sorts all cell particle lists in place.
func (s *State) Canonical() *State {
	for i := range s.Cells {
		SortCell(&s.Cells[i])
	}
	return s
}

// RunMPI executes the hand-distributed reference on `ranks`
// processes: x-band decomposition, ghost exchange of the mid-step
// particle cells, local field updates (B is static, so its ghost
// values are computed, not communicated — matching what a tuned MPI
// code would do). The gathered state at rank 0 is returned.
func RunMPI(ranks int, p Params) (*State, error) {
	n := p.N
	w := mpi.NewWorld(ranks)
	defer w.Close()

	result := NewState(p)
	const (
		tagUp     = 1
		tagDown   = 2
		tagGather = 3
	)

	err := w.Run(func(c *mpi.Comm) error {
		rank, size := c.Rank(), c.Size()
		lo := rank * n / size
		hi := (rank + 1) * n / size
		if hi <= lo {
			if rank != 0 {
				return c.SendValue(0, tagGather, &bandMsg{})
			}
			return fmt.Errorf("ipic3d: rank 0 has no planes")
		}
		rows := hi - lo
		plane := n * n
		idx := func(x, y, z int) int { return ((x-lo+1)*n+y)*n + z } // +1: ghost plane below

		// Local state: bands with one ghost plane on each side for
		// the particle mid grid; fields are band-local (B computed).
		e := make([]Vec3, (rows+2)*plane)
		b := make([]Vec3, (rows+2)*plane)
		rho := make([]float64, (rows+2)*plane)
		cells := make([]Cell, (rows+2)*plane)
		mid := make([]Cell, (rows+2)*plane)
		for x := lo - 1; x <= hi; x++ {
			if x < 0 || x >= n {
				continue
			}
			for y := 0; y < n; y++ {
				for z := 0; z < n; z++ {
					i := idx(x, y, z)
					e[i] = initialE(x, y, z, n)
					b[i] = initialB(x, y, z, n)
					if x >= lo && x < hi {
						cells[i] = Cell{Parts: initialParticles(x, y, z, n, p.PartsPerCell, p.Seed)}
					}
				}
			}
		}

		for t := 0; t < p.Steps; t++ {
			// Push own cells.
			for x := lo; x < hi; x++ {
				for y := 0; y < n; y++ {
					for z := 0; z < n; z++ {
						i := idx(x, y, z)
						rho[i] = float64(len(cells[i].Parts))
						out := make([]Particle, 0, len(cells[i].Parts))
						for _, part := range cells[i].Parts {
							out = append(out, advance(part, e[i], b[i], p.Dt, n))
						}
						mid[i].Parts = out
					}
				}
			}
			// Exchange ghost planes of the mid grid (emigrants).
			if rank > 0 {
				if err := c.SendValue(rank-1, tagUp, &bandMsg{Cells: mid[plane : 2*plane]}); err != nil {
					return err
				}
			}
			if rank < size-1 {
				if err := c.SendValue(rank+1, tagDown, &bandMsg{Cells: mid[rows*plane : (rows+1)*plane]}); err != nil {
					return err
				}
			}
			if rank < size-1 {
				var ghost bandMsg
				if err := c.RecvValue(rank+1, tagUp, &ghost); err != nil {
					return err
				}
				copy(mid[(rows+1)*plane:], ghost.Cells)
			} else {
				for i := (rows + 1) * plane; i < (rows+2)*plane; i++ {
					mid[i] = Cell{}
				}
			}
			if rank > 0 {
				var ghost bandMsg
				if err := c.RecvValue(rank-1, tagDown, &ghost); err != nil {
					return err
				}
				copy(mid[0:plane], ghost.Cells)
			} else {
				for i := 0; i < plane; i++ {
					mid[i] = Cell{}
				}
			}
			// Collect own cells from the one-ring (ghosts included).
			for x := lo; x < hi; x++ {
				for y := 0; y < n; y++ {
					for z := 0; z < n; z++ {
						var parts []Particle
						forNeighborhood(x, y, z, n, func(nx, ny, nz int) {
							if nx < lo-1 || nx > hi {
								return
							}
							for _, part := range mid[idx(nx, ny, nz)].Parts {
								cx, cy, cz := cellOf(part.Pos)
								if cx == x && cy == y && cz == z {
									parts = append(parts, part)
								}
							}
						})
						cells[idx(x, y, z)].Parts = parts
					}
				}
			}
			// Field update on own planes (B ghosts are available).
			next := make([]Vec3, len(e))
			bAt := func(bx, by, bz int) Vec3 {
				if bx < lo-1 || bx > hi {
					// Outside the ghost band: clamped index equals a
					// band-local plane only at domain walls; recompute.
					return initialB(bx, by, bz, n)
				}
				return b[idx(bx, by, bz)]
			}
			for x := lo; x < hi; x++ {
				for y := 0; y < n; y++ {
					for z := 0; z < n; z++ {
						i := idx(x, y, z)
						next[i] = updateE(e[i], curlB(bAt, x, y, z, n), rho[i], p.Dt)
					}
				}
			}
			e = next
		}

		// Gather at rank 0: own planes of cells and E.
		own := bandMsg{
			Cells: append([]Cell(nil), cells[plane:(rows+1)*plane]...),
			E:     append([]Vec3(nil), e[plane:(rows+1)*plane]...),
		}
		if rank != 0 {
			return c.SendValue(0, tagGather, &own)
		}
		write := func(r int, msg *bandMsg) {
			rlo := r * n / size
			copy(result.Cells[rlo*plane:], msg.Cells)
			copy(result.E[rlo*plane:], msg.E)
		}
		write(0, &own)
		for r := 1; r < size; r++ {
			var msg bandMsg
			if err := c.RecvValue(r, tagGather, &msg); err != nil {
				return err
			}
			write(r, &msg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return result, nil
}
