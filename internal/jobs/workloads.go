package jobs

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"allscale/internal/apps/ipic3d"
	"allscale/internal/apps/stencil"
	"allscale/internal/apps/tpc"
	"allscale/internal/core"
	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/region"
	"allscale/internal/sched"
	"allscale/internal/trace"
	"allscale/internal/wire"
)

// Built-in workload families. Each job names one family; the family
// turns the job's parameters into a tenant/job-tagged task tree and a
// verifiable result string:
//
//   - "pfor":    an arbitrary binary PFor DAG of hash leaves — pure
//     compute, deterministic (DagOracle), safe under crash-recovery
//     respawn (no data requirements);
//   - "stencil": the data-backed heat stencil over two per-job grid
//     data items (created at job start, destroyed at job end — also on
//     failure and cancel, so a cancelled tenant leaves no orphaned
//     fragments); a rank that dies under it takes fragments of both
//     along, so the job fails — through its lost tasks, which need data
//     and are not respawned, or by its own account of who died;
//   - "tpc":     the kd-tree point-correlation kernel as one sequential
//     task;
//   - "ipic3d":  the particle-in-cell kernel as one sequential task.
const (
	FamilyPFor    = "pfor"
	FamilyStencil = "stencil"
	FamilyTPC     = "tpc"
	FamilyIPiC3D  = "ipic3d"
)

// Task kind / pfor call-site names registered by RegisterWorkloads.
const (
	kindDag         = "jobs.dag"
	kindTPC         = "jobs.tpc"
	kindIPiC3D      = "jobs.ipic3d"
	kindStencilInit = "jobs.stencil.init"
	kindStencilStep = "jobs.stencil.step"
)

// PForParams parameterizes the "pfor" family: a complete binary spawn
// tree of the given depth whose leaves hash their position.
type PForParams struct {
	// Levels is the DAG depth: 2^Levels leaves. Range [0, 20].
	Levels int `json:"levels"`
	// Spin is the per-leaf hash work (xorshift rounds). Default 64.
	Spin int `json:"spin,omitempty"`
	// Seed varies the result between jobs.
	Seed uint64 `json:"seed,omitempty"`
}

// StencilParams parameterizes the "stencil" family. N must be one of
// the sizes provisioned via WorkloadConfig.StencilSizes.
type StencilParams struct {
	N     int     `json:"n"`
	Steps int     `json:"steps"`
	C     float64 `json:"c,omitempty"` // diffusion coefficient, default 0.1
}

// TPCParams parameterizes the "tpc" family (see tpc.Params).
type TPCParams struct {
	NumPoints  int     `json:"num_points"`
	Height     int     `json:"height"`
	Radius     float64 `json:"radius"`
	NumQueries int     `json:"num_queries"`
	Seed       int64   `json:"seed,omitempty"`
}

// IPiC3DParams parameterizes the "ipic3d" family (see ipic3d.Params).
type IPiC3DParams struct {
	N            int     `json:"n"`
	Steps        int     `json:"steps"`
	PartsPerCell int     `json:"parts_per_cell"`
	Dt           float64 `json:"dt,omitempty"`
	Seed         int64   `json:"seed,omitempty"`
}

// WorkloadConfig provisions the workload registry.
type WorkloadConfig struct {
	// StencilSizes lists the grid edge lengths stencil jobs may use;
	// grid data item types must exist before System.Start, so the
	// admissible sizes are fixed at registration. Default {32, 64}.
	StencilSizes []int
	// PForMinGrain bounds stencil pfor splitting. Default 256.
	PForMinGrain int64
}

// Workloads is the registry of runnable families on one system.
// Create with RegisterWorkloads before System.Start.
type Workloads struct {
	sys          *core.System
	stencilTypes map[int]*dataitem.GridType[float64]
}

// jobContext carries the identity under which a family runs its task
// trees.
type jobContext struct {
	tenant uint32
	job    uint64
	span   trace.SpanID
}

// dagArgs travel with each "jobs.dag" task.
type dagArgs struct {
	Levels int
	Spin   int
	Seed   uint64
}

// dagMix is the leaf hash: xorshift64* rounds over the seed.
func dagMix(seed uint64, spin int) uint64 {
	x := seed | 1
	for i := 0; i < spin; i++ {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
	}
	return x * 0x2545F4914F6CDD1D
}

// DagValue is the oracle of the "pfor" family: the wrapping sum of
// all leaf hashes of the binary DAG.
func DagValue(levels, spin int, seed uint64) uint64 {
	if levels <= 0 {
		return dagMix(seed, spin)
	}
	return DagValue(levels-1, spin, seed*2) + DagValue(levels-1, spin, seed*2+1)
}

// StencilInitValue is the deterministic initial field of the stencil
// family (distinct from the apps/stencil field; the update kernel is
// that package's).
func StencilInitValue(x, y int) float64 {
	return float64((x*13+y*7)%101) / 101.0
}

// StencilOracle computes the sequential reference field of the
// stencil family as a row-major N×N slice.
func StencilOracle(n, steps int, c float64) []float64 {
	a := make([]float64, n*n)
	b := make([]float64, n*n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			a[x*n+y] = StencilInitValue(x, y)
			b[x*n+y] = StencilInitValue(x, y)
		}
	}
	for t := 0; t < steps; t++ {
		for x := 1; x < n-1; x++ {
			stencil.UpdateRow(b[x*n+1:x*n+n-1], a[(x-1)*n+1:], a[x*n:], a[(x+1)*n+1:], c)
		}
		a, b = b, a
	}
	return a
}

// checksum folds a float64 field into a stable result string.
func checksum(field []float64) string {
	var sum float64
	for _, v := range field {
		sum += v
	}
	return fmt.Sprintf("%.9e", sum)
}

// RegisterWorkloads installs the built-in workload families on a
// system: the task kinds and pfor call sites of every family plus the
// grid data item types of the admissible stencil sizes. Must run
// before sys.Start.
func RegisterWorkloads(sys *core.System, cfg WorkloadConfig) *Workloads {
	if len(cfg.StencilSizes) == 0 {
		cfg.StencilSizes = []int{32, 64}
	}
	if cfg.PForMinGrain <= 0 {
		cfg.PForMinGrain = 256
	}
	w := &Workloads{sys: sys, stencilTypes: make(map[int]*dataitem.GridType[float64])}
	for _, n := range cfg.StencilSizes {
		if n < 4 {
			panic(fmt.Sprintf("jobs: stencil size %d too small (min 4)", n))
		}
		if _, dup := w.stencilTypes[n]; dup {
			continue
		}
		typ := dataitem.NewGridType[float64](fmt.Sprintf("jobs.stencil.%d", n), region.Point{n, n})
		sys.RegisterType(typ)
		w.stencilTypes[n] = typ
	}

	// "pfor": the splittable hash DAG. Process computes the whole
	// subtree sequentially, Split divides it — correct under any
	// variant choice the policy makes, and pure compute, so recovery
	// may respawn lost subtrees soundly.
	sys.RegisterKind(func(rank int) *sched.Kind {
		return &sched.Kind{
			Name: kindDag,
			CanSplit: func(args []byte) bool {
				var a dagArgs
				if err := wire.Decode(args, &a); err != nil {
					return false
				}
				return a.Levels > 0
			},
			Split: func(ctx *sched.Ctx) (any, error) {
				var a dagArgs
				if err := ctx.Args(&a); err != nil {
					return nil, err
				}
				left := dagArgs{Levels: a.Levels - 1, Spin: a.Spin, Seed: a.Seed * 2}
				right := left
				right.Seed++
				lb, rb, err := ctx.Fork(kindDag, &left, &right)
				if err != nil {
					return nil, err
				}
				var l, r uint64
				if err := wire.Decode(lb, &l); err != nil {
					return nil, err
				}
				if err := wire.Decode(rb, &r); err != nil {
					return nil, err
				}
				return l + r, nil
			},
			Process: func(ctx *sched.Ctx) (any, error) {
				var a dagArgs
				if err := ctx.Args(&a); err != nil {
					return nil, err
				}
				return DagValue(a.Levels, a.Spin, a.Seed), nil
			},
		}
	})

	// "tpc" and "ipic3d": sequential kernels as single tagged tasks.
	sys.RegisterKind(func(rank int) *sched.Kind {
		return &sched.Kind{
			Name: kindTPC,
			Process: func(ctx *sched.Ctx) (any, error) {
				var p TPCParams
				if err := ctx.Args(&p); err != nil {
					return nil, err
				}
				var sum int64
				for _, c := range tpc.RunSequential(tpc.Params{
					NumPoints: p.NumPoints, Height: p.Height, Radius: p.Radius,
					NumQueries: p.NumQueries, Seed: p.Seed,
				}) {
					sum += c
				}
				return fmt.Sprintf("%d", sum), nil
			},
		}
	})
	sys.RegisterKind(func(rank int) *sched.Kind {
		return &sched.Kind{
			Name: kindIPiC3D,
			Process: func(ctx *sched.Ctx) (any, error) {
				var p IPiC3DParams
				if err := ctx.Args(&p); err != nil {
					return nil, err
				}
				st := ipic3d.RunSequential(ipic3d.Params{
					N: p.N, Steps: p.Steps, PartsPerCell: p.PartsPerCell,
					Dt: p.Dt, Seed: p.Seed,
				})
				return fmt.Sprintf("%d", st.TotalParticles()), nil
			},
		}
	})

	// Stencil pfor call sites, shared by every size and every job: the
	// per-job grid item IDs travel in the extra payload, so concurrent
	// stencil jobs never share mutable state.
	core.RegisterPFor(sys, core.PForSpec{
		Name:     kindStencilInit,
		MinGrain: cfg.PForMinGrain,
		RangeBody: func(ctx *sched.Ctx, r core.Range, extra []byte) {
			if frag := stencilFrag(ctx, extra[:8]); frag != nil {
				stencil.FillRange(frag, r, StencilInitValue)
			}
		},
		Reqs: func(r core.Range, extra []byte) []dim.Requirement {
			return []dim.Requirement{{
				Item:   dim.ItemID(binary.BigEndian.Uint64(extra[:8])),
				Region: dataitem.GridRegionFromTo(r.Lo, r.Hi),
				Mode:   dim.Write,
			}}
		},
	})
	core.RegisterPFor(sys, core.PForSpec{
		Name:     kindStencilStep,
		MinGrain: cfg.PForMinGrain,
		RangeBody: func(ctx *sched.Ctx, r core.Range, extra []byte) {
			src := stencilFrag(ctx, extra[:8])
			dst := stencilFrag(ctx, extra[8:16])
			if src == nil || dst == nil {
				return
			}
			stencil.StepRange(src, dst, r, math.Float64frombits(binary.BigEndian.Uint64(extra[16:24])))
		},
		Reqs: func(r core.Range, extra []byte) []dim.Requirement {
			srcItem := dim.ItemID(binary.BigEndian.Uint64(extra[:8]))
			dstItem := dim.ItemID(binary.BigEndian.Uint64(extra[8:16]))
			halo := region.Point{r.Lo[0] - 1, r.Lo[1] - 1}
			haloHi := region.Point{r.Hi[0] + 1, r.Hi[1] + 1}
			return []dim.Requirement{
				{Item: srcItem, Region: dataitem.GridRegionFromTo(halo, haloHi), Mode: dim.Read},
				{Item: dstItem, Region: dataitem.GridRegionFromTo(r.Lo, r.Hi), Mode: dim.Write},
			}
		},
	})
	return w
}

// stencilFrag resolves a grid fragment from an 8-byte item ID. It
// returns nil when the item is gone: a cancel fails the promise of a
// task it finds in the inflight registry even while that task runs on
// another rank, so the job can unwind and destroy its items under a
// straggler's body. The straggler's range is then skipped — the job's
// result is already discarded.
func stencilFrag(ctx *sched.Ctx, id []byte) *dataitem.GridFragment[float64] {
	frag, err := ctx.Fragment(dim.ItemID(binary.BigEndian.Uint64(id)))
	if err != nil {
		return nil
	}
	return frag.(*dataitem.GridFragment[float64])
}

// StencilSizes returns the admissible stencil edge lengths, sorted.
func (w *Workloads) StencilSizes() []int {
	out := make([]int, 0, len(w.stencilTypes))
	for n := range w.stencilTypes {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// estimate validates a family's parameters and returns the job's
// estimated data footprint in bytes (the admission controller's
// memory-quota input).
func (w *Workloads) estimate(family string, params []byte) (int64, error) {
	switch family {
	case FamilyPFor:
		var p PForParams
		if err := json.Unmarshal(params, &p); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadParams, err)
		}
		if p.Levels < 0 || p.Levels > 20 {
			return 0, fmt.Errorf("%w: pfor levels %d outside [0,20]", ErrBadParams, p.Levels)
		}
		return 0, nil
	case FamilyStencil:
		var p StencilParams
		if err := json.Unmarshal(params, &p); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadParams, err)
		}
		if _, ok := w.stencilTypes[p.N]; !ok {
			return 0, fmt.Errorf("%w: stencil size %d not provisioned (available %v)",
				ErrBadParams, p.N, w.StencilSizes())
		}
		if p.Steps < 0 || p.Steps > 1<<16 {
			return 0, fmt.Errorf("%w: stencil steps %d outside [0,65536]", ErrBadParams, p.Steps)
		}
		return 2 * 8 * int64(p.N) * int64(p.N), nil
	case FamilyTPC:
		var p TPCParams
		if err := json.Unmarshal(params, &p); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadParams, err)
		}
		if p.NumPoints <= 0 || p.NumPoints > 1<<22 || p.Height < 1 || p.Height > 24 || p.NumQueries < 0 {
			return 0, fmt.Errorf("%w: tpc bounds", ErrBadParams)
		}
		return int64(p.NumPoints) * 7 * 8 * 2, nil
	case FamilyIPiC3D:
		var p IPiC3DParams
		if err := json.Unmarshal(params, &p); err != nil {
			return 0, fmt.Errorf("%w: %v", ErrBadParams, err)
		}
		if p.N < 1 || p.N > 64 || p.Steps < 0 || p.PartsPerCell < 0 {
			return 0, fmt.Errorf("%w: ipic3d bounds", ErrBadParams)
		}
		cells := int64(p.N) * int64(p.N) * int64(p.N)
		return cells * (int64(p.PartsPerCell)*56 + 80), nil
	default:
		return 0, fmt.Errorf("%w: %q", ErrUnknownFamily, family)
	}
}

// run executes one job's workload under its tenant/job identity and
// returns the result string. It blocks until the task tree unwound —
// also on failure and cancellation, so per-job data items can be
// destroyed without racing live tasks.
func (w *Workloads) run(jc jobContext, family string, params []byte) (string, error) {
	switch family {
	case FamilyPFor:
		var p PForParams
		if err := json.Unmarshal(params, &p); err != nil {
			return "", fmt.Errorf("%w: %v", ErrBadParams, err)
		}
		if p.Spin <= 0 {
			p.Spin = 64
		}
		fut, err := w.sys.SpawnJobTask(kindDag,
			&dagArgs{Levels: p.Levels, Spin: p.Spin, Seed: p.Seed},
			jc.tenant, jc.job, jc.span)
		if err != nil {
			return "", err
		}
		var v uint64
		if err := fut.WaitInto(&v); err != nil {
			return "", err
		}
		return fmt.Sprintf("%#x", v), nil
	case FamilyStencil:
		return w.runStencil(jc, params)
	case FamilyTPC:
		var p TPCParams
		if err := json.Unmarshal(params, &p); err != nil {
			return "", fmt.Errorf("%w: %v", ErrBadParams, err)
		}
		return w.waitString(jc, kindTPC, &p)
	case FamilyIPiC3D:
		var p IPiC3DParams
		if err := json.Unmarshal(params, &p); err != nil {
			return "", fmt.Errorf("%w: %v", ErrBadParams, err)
		}
		if p.Dt == 0 {
			p.Dt = 0.1
		}
		return w.waitString(jc, kindIPiC3D, &p)
	default:
		return "", fmt.Errorf("%w: %q", ErrUnknownFamily, family)
	}
}

// waitString spawns one tagged task and waits for its string result.
func (w *Workloads) waitString(jc jobContext, kind string, args any) (string, error) {
	fut, err := w.sys.SpawnJobTask(kind, args, jc.tenant, jc.job, jc.span)
	if err != nil {
		return "", err
	}
	var out string
	if err := fut.WaitInto(&out); err != nil {
		return "", err
	}
	return out, nil
}

// runStencil drives the data-backed stencil: two per-job grid items,
// init + step pfors, checksum readback, destroy. The destroy runs in
// all exits (success, failure, cancel) so no fragments or index state
// outlive the job.
func (w *Workloads) runStencil(jc jobContext, params []byte) (result string, err error) {
	var p StencilParams
	if err := json.Unmarshal(params, &p); err != nil {
		return "", fmt.Errorf("%w: %v", ErrBadParams, err)
	}
	if p.C == 0 {
		p.C = 0.1
	}
	typ, ok := w.stencilTypes[p.N]
	if !ok {
		return "", fmt.Errorf("%w: stencil size %d not provisioned", ErrBadParams, p.N)
	}
	deadBefore := w.deadRanks()
	mgr := w.sys.Manager(0)
	items := make([]dim.ItemID, 2)
	for i := range items {
		// Only an unregistered type fails a create, and the first one.
		if items[i], err = mgr.CreateItem(typ); err != nil {
			return "", fmt.Errorf("jobs: create stencil item: %w", err)
		}
	}
	defer func() {
		// The pfor waits above returned, so the job's task tree has
		// quiesced (cancelled stragglers die at the execution gate
		// without acquiring, or leave a lock wait holding nothing);
		// destroying now cannot race a live pin.
		for _, id := range items {
			if derr := mgr.DestroyItem(id); derr != nil && err == nil {
				err = fmt.Errorf("jobs: destroy stencil item: %w", derr)
			}
		}
	}()

	n := p.N
	pforWait := func(name string, lo, hi region.Point, extra []byte) error {
		fut, serr := w.sys.SpawnPForJob(name, lo, hi, extra, jc.tenant, jc.job, jc.span)
		if serr != nil {
			return serr
		}
		_, werr := fut.Wait()
		return werr
	}
	var itemBuf [24]byte
	for _, id := range items {
		binary.BigEndian.PutUint64(itemBuf[:8], uint64(id))
		if err := pforWait(kindStencilInit, region.Point{0, 0}, region.Point{n, n}, itemBuf[:8]); err != nil {
			return "", err
		}
	}
	for t := 0; t < p.Steps; t++ {
		src, dst := items[t%2], items[1-t%2]
		var extra [24]byte
		binary.BigEndian.PutUint64(extra[:8], uint64(src))
		binary.BigEndian.PutUint64(extra[8:16], uint64(dst))
		binary.BigEndian.PutUint64(extra[16:24], math.Float64bits(p.C))
		if err := pforWait(kindStencilStep, region.Point{1, 1}, region.Point{n - 1, n - 1}, extra[:]); err != nil {
			return "", err
		}
	}

	// Checksum the final buffer under a proper read acquisition.
	final := items[p.Steps%2]
	token := jc.job | 1<<62
	full := dataitem.GridRegionFromTo(region.Point{0, 0}, region.Point{n, n})
	if err := mgr.Acquire(token, []dim.Requirement{{Item: final, Region: full, Mode: dim.Read}}); err != nil {
		return "", fmt.Errorf("jobs: read stencil result: %w", err)
	}
	frag, ferr := mgr.Fragment(final)
	if ferr != nil {
		mgr.Release(token)
		return "", ferr
	}
	gf := frag.(*dataitem.GridFragment[float64])
	field := make([]float64, 0, n*n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			field = append(field, gf.At(region.Point{x, y}))
		}
	}
	mgr.Release(token)
	// A rank declared dead while the items existed took its fragments of
	// them with it. Tasks lost with it fail the job above; when none was,
	// a later step may have first-touched the hole, and nothing the
	// service can see tells such a field from a sound one.
	if dead := w.deadRanks(); len(dead) > len(deadBefore) {
		return "", fmt.Errorf("jobs: dead ranks %v, were %v when the stencil started: the job's items lost fragments, the result cannot be vouched for", dead, deadBefore)
	}
	return checksum(field), nil
}

// deadRanks returns the ranks the recovery service has declared dead.
func (w *Workloads) deadRanks() []int {
	if rec := w.sys.Recovery(); rec != nil {
		return rec.DeadRanks()
	}
	return nil
}
