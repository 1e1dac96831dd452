package core

import (
	"fmt"

	"allscale/internal/dim"
	"allscale/internal/region"
	"allscale/internal/sched"
)

// Range is an N-dimensional half-open iteration range [Lo, Hi), the
// argument domain of pfor (Fig. 6b).
type Range struct {
	Lo, Hi region.Point
}

// Volume returns the number of iteration points.
func (r Range) Volume() int64 {
	if len(r.Lo) == 0 {
		return 0
	}
	v := int64(1)
	for d := range r.Lo {
		if r.Hi[d] <= r.Lo[d] {
			return 0
		}
		v *= int64(r.Hi[d] - r.Lo[d])
	}
	return v
}

// Split divides the range into two halves along its widest dimension.
func (r Range) Split() (Range, Range) {
	widest, extent := 0, 0
	for d := range r.Lo {
		if e := r.Hi[d] - r.Lo[d]; e > extent {
			widest, extent = d, e
		}
	}
	mid := r.Lo[widest] + extent/2
	return r.span(widest, r.Lo[widest], mid), r.span(widest, mid, r.Hi[widest])
}

// span returns a copy of r spanning [lo, hi) on axis d, its two bounds
// in one allocation.
func (r Range) span(d, lo, hi int) Range {
	n := len(r.Lo)
	b := make(region.Point, 2*n)
	s := Range{Lo: b[:n:n], Hi: b[n:]}
	copy(s.Lo, r.Lo)
	copy(s.Hi, r.Hi)
	s.Lo[d], s.Hi[d] = lo, hi
	return s
}

// ForEach invokes fn for every point of the range in row-major order;
// fn must not retain the point.
func (r Range) ForEach(fn func(p region.Point)) {
	p, last := make(region.Point, len(r.Lo)), len(r.Lo)-1
	copy(p, r.Lo)
	for row := r.Volume() > 0; row; row = r.nextRow(p) {
		for ; p[last] < r.Hi[last]; p[last]++ {
			fn(p)
		}
	}
}

// nextRow moves the cursor p, a point of the range past the end of a
// row, to the start of the next — a carry into the outer dimensions —
// and reports whether there is one.
func (r Range) nextRow(p region.Point) bool {
	d := len(p) - 1
	p[d] = r.Lo[d]
	for d--; d >= 0; d-- {
		if p[d]++; p[d] < r.Hi[d] {
			return true
		}
		p[d] = r.Lo[d]
	}
	return false
}

func (r Range) String() string { return r.Lo.String() + ".." + r.Hi.String() }

// pforArgs travel with each pfor fragment task. Extra is an opaque
// per-invocation payload (e.g. the time step of a stencil, selecting
// which buffer is source and which is destination). cursor is not on
// the wire: decoding makes it a point of the range's dimension in the
// allocation of the bounds, for a leaf's ForEach.
type pforArgs struct {
	R      Range
	Extra  []byte
	cursor region.Point
}

// PForSpec defines one pfor call site: the loop body, the data
// requirements of a sub-range, and the splitting grain. The AllScale
// compiler derives all three from the source loop (Section 3.3); here
// the application states them explicitly. The body comes in one of two
// forms, of which a spec sets exactly one.
type PForSpec struct {
	// Name must be unique among registered kinds.
	Name string
	// Body executes one iteration point. extra is the invocation's
	// payload as it sits in the task's encoded arguments, shared by
	// every point of the task: read it, do not write it.
	Body func(ctx *sched.Ctx, p region.Point, extra []byte)
	// RangeBody executes a whole leaf sub-range in one call — the form
	// of Fig. 6b, where the loop nest is the application's and can run
	// over fragment rows (GridFragment.Row) instead of points. It must
	// touch every point of r exactly as a Body would; extra as above.
	RangeBody func(ctx *sched.Ctx, r Range, extra []byte)
	// Reqs states the data requirements of processing the sub-range
	// sequentially (Definition 2.7); nil means none.
	Reqs func(r Range, extra []byte) []dim.Requirement
	// MinGrain stops splitting below this iteration volume.
	// Default 1024.
	MinGrain int64
}

// RegisterPFor installs a pfor call site as a task kind with a
// sequential (process) and a parallel (split) variant — the two
// variants of Example 2.3. The split forks its two halves
// (sched.Ctx.Fork); a per-point body runs in a loop over each row of the
// leaf's range. Must run before System.Start.
func RegisterPFor(sys *System, spec PForSpec) {
	if (spec.Body == nil) == (spec.RangeBody == nil) {
		panic(fmt.Sprintf("core: pfor %q must set exactly one of Body and RangeBody", spec.Name))
	}
	grain := spec.MinGrain
	if grain <= 0 {
		grain = 1024
	}
	sys.RegisterKind(func(rank int) *sched.Kind {
		return &sched.Kind{
			Name: spec.Name,
			CanSplit: func(args []byte) bool {
				v, ok := pforVolume(args)
				return ok && v > grain
			},
			Split: func(ctx *sched.Ctx) (any, error) {
				kids, err := splitPForArgs(ctx.RawArgs())
				if err != nil {
					return nil, err
				}
				_, _, err = ctx.Fork(spec.Name, &kids.args[0], &kids.args[1])
				return nil, err
			},
			Reqs: func(args []byte) []dim.Requirement {
				if spec.Reqs == nil {
					return nil
				}
				var a pforArgs
				if err := decodePForArgs(args, &a); err != nil {
					return nil
				}
				return spec.Reqs(a.R, a.Extra)
			},
			Process: func(ctx *sched.Ctx) (any, error) {
				var a pforArgs
				if err := decodePForArgs(ctx.RawArgs(), &a); err != nil {
					return nil, err
				}
				if spec.RangeBody != nil {
					spec.RangeBody(ctx, a.R, a.Extra)
					return nil, nil
				}
				// ForEach over the decoded cursor, calling the body directly.
				p, last := a.cursor, len(a.cursor)-1
				copy(p, a.R.Lo)
				for row := a.R.Volume() > 0; row; row = a.R.nextRow(p) {
					for ; p[last] < a.R.Hi[last]; p[last]++ {
						spec.Body(ctx, p, a.Extra)
					}
				}
				return nil, nil
			},
		}
	})
}

// PFor runs a registered pfor call site over [lo, hi) and blocks
// until every iteration completed — the pfor of Fig. 6b.
func (s *System) PFor(name string, lo, hi region.Point, extra []byte) error {
	if len(lo) != len(hi) {
		return fmt.Errorf("core: pfor bounds of different dimensionality")
	}
	fut, err := s.Spawn(name, &pforArgs{R: Range{Lo: lo, Hi: hi}, Extra: extra})
	if err != nil {
		return err
	}
	_, err = fut.Wait()
	return err
}
