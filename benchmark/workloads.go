package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"allscale/internal/apps/ipic3d"
	"allscale/internal/apps/stencil"
	"allscale/internal/apps/tpc"
	"allscale/internal/core"
	"allscale/internal/jobs"
	"allscale/internal/recovery"
	"allscale/internal/region"
	"allscale/internal/sched"
	"allscale/internal/transport"
)

// localities is the cluster size of every workload: two address
// spaces over real TCP loopback sockets, the smallest system in which
// every message crosses the wire codec and the kernel.
const localities = 2

// setupOpts are the settings of one workload set-up.
type setupOpts struct {
	traceCap int    // core.Config.TraceCapacity; 0 = tracing off
	scratch  string // directory for on-disk state (the job journal)
}

// instance is one system under test: built, its data created and
// loaded, ready for its first op.
type instance struct {
	sys *core.System
	// drivers is the closed-loop client count: each driver issues its
	// next iteration only after the previous one completed.
	drivers int
	// workers is the number of scheduler worker goroutines over all
	// localities; 0 in goroutine-per-task mode.
	workers int
	// warmup is the number of untimed iterations of each driver after
	// which caches are full and first-touch placement has settled.
	warmup int
	// step runs one iteration of driver d — one unit op, or for
	// jobs-mixed one submit-burst-and-wait — and records every op it
	// attempted, checked against the per-op oracle where one exists.
	step func(d int, rec *recorder)
	// verify is the end-of-run oracle for outputs that only exist as a
	// whole (the stencil field, the leaf checksum).
	verify func() error
	close  func()
}

// workload is one set of inputs the benchmark runs. inputs derives
// them, and the oracle's reference values, from the seed: that is the
// harness's cost, and the runtime only ever sees what it returns. setup
// is the system's cost: build it, create and load its data.
type workload struct {
	name   string
	inputs func(seed int64) any
	setup  func(o setupOpts, inputs any) (*instance, error)
}

var workloads = []workload{
	{"stencil-halo", stencilInputs, setupStencil},
	{"spawn-tree", treeInputs, setupSpawnTree},
	{"tpc-query", tpcInputs, setupTPC},
	{"jobs-mixed", jobsInputs, setupJobs},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// loopbackFabric provisions n TCP endpoints on 127.0.0.1 with
// OS-assigned ports and exchanges the bound addresses, as
// cmd/allscaled does for -fabric tcp.
func loopbackFabric(n int) ([]transport.Endpoint, error) {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	tcps := make([]*transport.TCPEndpoint, 0, n)
	for i := 0; i < n; i++ {
		ep, err := transport.NewTCPEndpoint(i, addrs)
		if err != nil {
			for _, open := range tcps {
				open.Close()
			}
			return nil, fmt.Errorf("tcp endpoint %d: %w", i, err)
		}
		tcps = append(tcps, ep)
	}
	actual := make([]string, n)
	for i, ep := range tcps {
		actual[i] = ep.Addr()
	}
	eps := make([]transport.Endpoint, n)
	for i, ep := range tcps {
		ep.SetAddrs(actual)
		eps[i] = ep
	}
	return eps, nil
}

// newSystem builds a system over a fresh loopback fabric.
func newSystem(cfg core.Config) (*core.System, error) {
	eps, err := loopbackFabric(localities)
	if err != nil {
		return nil, err
	}
	cfg.Endpoints = eps
	return core.NewSystem(cfg), nil
}

// ---------------------------------------------------------------
// stencil-halo: the data plane does the work. One op is one time step
// of the 64² heat stencil in the goroutine-per-task mode that
// stencil.RunAllScale and examples/ ship: per step each locality
// write-acquires its half of the destination buffer (revoking the
// neighbour's stale halo replica) and refreshes its halo row of the
// source buffer — dim acquire, fragment extract/insert, codec,
// transport and RPC dominate; the scheduler places two tasks.
//
// The step is issued as its two locality-sized halves one after the
// other, not as stencil.RunSteps would issue it. RunSteps runs the
// leaves of a step concurrently, and at the seed commit a fragment
// Resize on one goroutine races element writes on another: updates
// are lost, and after a few hundred steps the field is no longer
// bit-identical to the sequential reference (README, baseline
// observations). One task at a time keeps the exact oracle.
// ---------------------------------------------------------------

const (
	stencilN = 64
	// stencilGrain leaves one leaf per locality: the initialiser's
	// halves (2048 cells) and a step's halves (1922) stay unsplit.
	stencilGrain  = 2048
	stencilWarmup = 200
	stencilStep   = "stencil.step" // the pfor call site stencil.NewAllScale registers
)

// stencilHalves are the interior rows each locality owns after the
// initialiser's first-touch placement: the upper band on rank 0, the
// lower on rank 1.
var stencilHalves = [localities][2]region.Point{
	{{1, 1}, {stencilN / 2, stencilN - 1}},
	{{stencilN / 2, 1}, {stencilN - 1, stencilN - 1}},
}

// stencilInputs picks the diffusion coefficient: a different field
// every seed, the same arithmetic and message pattern.
func stencilInputs(seed int64) any {
	return 0.05 + 0.15*rand.New(rand.NewSource(seed)).Float64()
}

func setupStencil(o setupOpts, inputs any) (*instance, error) {
	c := inputs.(float64)
	sys, err := newSystem(core.Config{TraceCapacity: o.traceCap})
	if err != nil {
		return nil, err
	}
	// Steps stays 0 so that Result() reads buffer 0, which holds the
	// field after any even number of steps; verify evens the count.
	app := stencil.NewAllScale(sys, stencil.Params{N: stencilN, C: c, MinGrain: stencilGrain})
	sys.Start()
	steps := 0
	step := func() error {
		parity := []byte{byte(steps % 2)}
		for _, half := range stencilHalves {
			if err := sys.PFor(stencilStep, half[0], half[1], parity); err != nil {
				return fmt.Errorf("step %d: %w", steps, err)
			}
		}
		steps++
		return nil
	}
	err = app.CreateItems()
	if err == nil {
		err = app.Init()
	}
	if err != nil {
		sys.Close()
		return nil, err
	}
	return &instance{
		sys:     sys,
		drivers: 1,
		warmup:  stencilWarmup,
		step:    func(_ int, rec *recorder) { rec.timed(step) },
		verify: func() error {
			if steps%2 == 1 {
				if err := step(); err != nil {
					return err
				}
			}
			got, err := app.Result()
			if err != nil {
				return err
			}
			want := stencil.RunSequential(stencil.Params{N: stencilN, Steps: steps, C: c})
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					return fmt.Errorf("stencil: cell %d after %d steps is %v, sequential reference %v", i, steps, got[i], want[i])
				}
			}
			return nil
		},
		close: func() { sys.Close() },
	}, nil
}

// ---------------------------------------------------------------
// spawn-tree: the scheduler does the work. One op is a requirement-
// free pfor over [0,4096) that the policy splits seven levels deep —
// 127 tasks on one worker per locality: spawn, split/wait, deque,
// park/wake, ship, steal probes. dim and dataitem do nothing.
// ---------------------------------------------------------------

const (
	treeRange  = 4096
	treeWarmup = 100
)

// treeInputs picks the salt every leaf folds its index with.
func treeInputs(seed int64) any { return rand.New(rand.NewSource(seed)).Uint64() }

func setupSpawnTree(o setupOpts, inputs any) (*instance, error) {
	salt := inputs.(uint64)
	sys, err := newSystem(core.Config{
		Workers:       1,
		Policy:        &sched.DefaultPolicy{ExtraDepth: 5},
		TraceCapacity: o.traceCap,
	})
	if err != nil {
		return nil, err
	}
	// Every leaf folds its salted index into one sum; the salt travels
	// as the pfor's extra payload.
	extra := make([]byte, 8)
	for i := range extra {
		extra[i] = byte(salt >> (8 * i))
	}
	var perTree uint64
	for i := uint64(0); i < treeRange; i++ {
		perTree += i ^ salt
	}
	var sum atomic.Uint64
	core.RegisterPFor(sys, core.PForSpec{
		Name:     "bench.leaf",
		MinGrain: 1,
		Body: func(_ *sched.Ctx, p region.Point, extra []byte) {
			var s uint64
			for i, b := range extra {
				s |= uint64(b) << (8 * i)
			}
			sum.Add(uint64(p[0]) ^ s)
		},
	})
	sys.Start()
	trees := uint64(0)
	tree := func() error {
		trees++
		return sys.PFor("bench.leaf", region.Point{0}, region.Point{treeRange}, extra)
	}
	return &instance{
		sys:     sys,
		drivers: 1,
		workers: localities,
		warmup:  treeWarmup,
		step:    func(_ int, rec *recorder) { rec.timed(tree) },
		verify: func() error {
			if got, want := sum.Load(), trees*perTree; got != want {
				return fmt.Errorf("spawn-tree: leaf checksum %#x after %d trees, want %#x", got, trees, want)
			}
			return nil
		},
		close: func() { sys.Close() },
	}, nil
}

// ---------------------------------------------------------------
// tpc-query: the same dim and sched layers used differently. One op is
// one radius query on a static, read-only kd-tree item: locate-cache
// hits, data-driven ship placement, ~6 tasks and ~7 messages. A
// locate/placement gain shows here and must not move stencil-halo; a
// write-path gain shows there and must not move this.
// ---------------------------------------------------------------

const (
	tpcWarmup  = 256
	tpcQueries = 4096
)

// tpcParams sizes the kd-tree: 16384 seeded points in 1023 nodes, eight
// distributable subtrees under a replicated three-level root block.
func tpcParams(seed int64) tpc.Params {
	return tpc.Params{
		NumPoints: 16384, Height: 10, BlockHeight: 3, Radius: 30,
		NumQueries: tpcQueries, Seed: seed,
	}
}

// tpcData is the seeded point set's query stream with the sequential
// reference's answers.
type tpcData struct {
	params  tpc.Params
	queries []tpc.Point7
	want    []int64
}

func tpcInputs(seed int64) any {
	p := tpcParams(seed)
	return tpcData{p, tpc.GenerateQueries(p.NumQueries, p.Seed), tpc.RunSequential(p)}
}

func setupTPC(o setupOpts, inputs any) (*instance, error) {
	in := inputs.(tpcData)
	p, queries, want := in.params, in.queries, in.want
	// One worker per locality, not goroutine-per-task: at the seed commit
	// the loader's leaves, run as concurrent goroutines, write one
	// fragment's node map unsynchronised, and one load in forty dies of
	// "concurrent map writes" (README, baseline observations).
	sys, err := newSystem(core.Config{Workers: 1, TraceCapacity: o.traceCap})
	if err != nil {
		return nil, err
	}
	app := tpc.NewAllScale(sys, p)
	sys.Start()
	if err := app.Load(); err != nil {
		sys.Close()
		return nil, err
	}
	n := 0
	query := func() error {
		i := n % len(queries)
		got, err := app.Query(n%localities, queries[i])
		n++
		if err == nil && got != want[i] {
			err = fmt.Errorf("tpc: query %d counted %d points, sequential reference %d", i, got, want[i])
		}
		return err
	}
	return &instance{
		sys:     sys,
		drivers: 1,
		workers: localities,
		warmup:  tpcWarmup,
		step:    func(_ int, rec *recorder) { rec.timed(query) },
		verify:  func() error { return nil }, // every query is checked as it returns
		close:   func() { sys.Close() },
	}, nil
}

// ---------------------------------------------------------------
// jobs-mixed: the job service does the work. The system is wired like
// cmd/allscaled (recovery attached, durable journal, protocol server
// on a socket) and two client connections each loop {submit a burst
// of 8, wait for all}: JSON protocol, admission, journal append,
// weighted round-robin dispatch over a real backlog (16 outstanding
// against 8 active), per-job item create/destroy. One op is one job,
// timed by the service's own Submitted and Finished stamps.
// ---------------------------------------------------------------

const (
	jobsClients  = 2
	jobsBurst    = 8
	jobsWarmup   = 4  // bursts per client
	jobsVariants = 16 // distinct parameter sets per family
)

var jobFamilies = []string{jobs.FamilyPFor, jobs.FamilyStencil, jobs.FamilyTPC, jobs.FamilyIPiC3D}

// jobSpec is one submittable job with its oracle.
type jobSpec struct {
	family string
	params any
	check  func(result string) bool
}

func equals(want string) func(string) bool {
	return func(got string) bool { return got == want }
}

// jobsInputs derives the job stream from the seed: families round-robin
// as in examples/services, parameters sized alike, seeds varying. The
// result is indexed by family, then variant.
func jobsInputs(seed int64) any {
	rng := rand.New(rand.NewSource(seed))
	var stencilSum float64
	for _, v := range jobs.StencilOracle(32, 4, 0.1) {
		stencilSum += v
	}
	table := make([][]jobSpec, len(jobFamilies))
	for v := 0; v < jobsVariants; v++ {
		pf := jobs.PForParams{Levels: 6, Spin: 32, Seed: rng.Uint64()}
		table[0] = append(table[0], jobSpec{jobs.FamilyPFor, pf,
			equals(fmt.Sprintf("%#x", jobs.DagValue(pf.Levels, pf.Spin, pf.Seed)))})

		// Split 32² stencil jobs trip the GridFragment resize race under
		// Workers>0 (README, baseline observations); PForMinGrain keeps
		// them unsplit.
		table[1] = append(table[1], jobSpec{jobs.FamilyStencil, jobs.StencilParams{N: 32, Steps: 4},
			func(got string) bool {
				f, err := strconv.ParseFloat(got, 64)
				return err == nil && math.Abs(f-stencilSum) <= 1e-8*math.Abs(stencilSum)
			}})

		tp := jobs.TPCParams{NumPoints: 512, Height: 6, Radius: 0.2, NumQueries: 16, Seed: rng.Int63()}
		var tpcSum int64
		for _, c := range tpc.RunSequential(tpc.Params{
			NumPoints: tp.NumPoints, Height: tp.Height, Radius: tp.Radius,
			NumQueries: tp.NumQueries, Seed: tp.Seed,
		}) {
			tpcSum += c
		}
		table[2] = append(table[2], jobSpec{jobs.FamilyTPC, tp, equals(strconv.FormatInt(tpcSum, 10))})

		ip := jobs.IPiC3DParams{N: 4, Steps: 2, PartsPerCell: 2, Seed: rng.Int63()}
		st := ipic3d.RunSequential(ipic3d.Params{
			N: ip.N, Steps: ip.Steps, PartsPerCell: ip.PartsPerCell, Dt: 0.1, Seed: ip.Seed,
		})
		table[3] = append(table[3], jobSpec{jobs.FamilyIPiC3D, ip, equals(strconv.Itoa(st.TotalParticles()))})
	}
	return table
}

func setupJobs(o setupOpts, inputs any) (inst *instance, err error) {
	table := inputs.([][]jobSpec)
	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	defer func() {
		if err != nil {
			closeAll()
		}
	}()

	sys, err := newSystem(core.Config{Workers: 1, TraceCapacity: o.traceCap})
	if err != nil {
		return nil, err
	}
	w := jobs.RegisterWorkloads(sys, jobs.WorkloadConfig{StencilSizes: []int{32}, PForMinGrain: 4096})
	sys.Start()
	closers = append(closers, func() { sys.Close() })
	coord := recovery.Attach(sys, recovery.Options{})
	closers = append(closers, coord.Stop)

	stateDir, err := os.MkdirTemp(o.scratch, "jobs-state-")
	if err != nil {
		return nil, err
	}
	closers = append(closers, func() { os.RemoveAll(stateDir) })
	// The interval policy exercises the journal write path while
	// keeping the disk's sync latency out of every submit.
	svc, err := jobs.Open(sys, w, jobs.Config{
		MaxActive: 8, MaxBacklog: 256,
		StateDir: stateDir, Fsync: jobs.FsyncIntervalPolicy, FsyncInterval: 25 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	closers = append(closers, svc.Close)
	tenants := []string{"gold-a", "base-a", "gold-b", "base-b"}
	for i, name := range tenants {
		q := jobs.Quota{Weight: 1, MaxActive: 4}
		if i%2 == 0 {
			q.Weight = 3
		}
		if err := svc.RegisterTenant(name, q); err != nil {
			return nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := jobs.Serve(svc, ln, nil)
	closers = append(closers, srv.Close)

	clients := make([]*jobs.Client, jobsClients)
	issued := make([]int, jobsClients)
	for d := range clients {
		if clients[d], err = jobs.Dial(srv.Addr().String()); err != nil {
			return nil, err
		}
		cli := clients[d]
		closers = append(closers, func() { cli.Close() })
	}

	burst := func(d int, rec *recorder) {
		cli := clients[d]
		var ids [jobsBurst]uint64
		var specs [jobsBurst]jobSpec
		for k := range ids {
			n := issued[d]
			issued[d]++
			specs[k] = table[n%len(table)][(n/len(table)+d*jobsVariants/jobsClients)%jobsVariants]
			start := time.Now()
			id, err := cli.Submit(tenants[n/len(table)%len(tenants)], specs[k].family, specs[k].params)
			if err != nil {
				rec.op(start, time.Since(start), fmt.Errorf("submit %s: %w", specs[k].family, err))
				continue
			}
			rec.sample("submit", time.Since(start))
			ids[k] = id
		}
		for k, id := range ids {
			if id == 0 {
				continue
			}
			start := time.Now()
			st, err := cli.Wait(id)
			switch {
			case err != nil:
				err = fmt.Errorf("wait job %d: %w", id, err)
			case st.State != jobs.Done.String():
				err = fmt.Errorf("job %d (%s) ended %s: %s", id, st.Family, st.State, st.Error)
			case !specs[k].check(st.Result):
				err = fmt.Errorf("job %d (%s) returned %q, oracle disagrees", id, st.Family, st.Result)
			}
			if err != nil {
				rec.op(start, time.Since(start), err)
				continue
			}
			rec.op(st.Submitted, st.Finished.Sub(st.Submitted), nil)
			rec.sample("queue", st.Started.Sub(st.Submitted))
			rec.sample("admit_to_exec", st.FirstExec.Sub(st.Submitted))
			rec.sample("run."+st.Family, st.Finished.Sub(st.Started))
		}
	}

	return &instance{
		sys:     sys,
		drivers: jobsClients,
		workers: localities,
		warmup:  jobsWarmup,
		step:    burst,
		verify: func() error {
			for _, ts := range svc.Tenants() {
				if ts.Failed+ts.Cancelled > 0 {
					return fmt.Errorf("jobs-mixed: tenant %s has %d failed and %d cancelled jobs", ts.Name, ts.Failed, ts.Cancelled)
				}
			}
			return nil
		},
		close: closeAll,
	}, nil
}
