package main

import (
	"fmt"
	"net"
	"os"
	"time"

	"allscale/internal/apps/stencil"
	"allscale/internal/apps/tpc"
	"allscale/internal/core"
	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/jobs"
	"allscale/internal/region"
	"allscale/internal/runtime"
	"allscale/internal/sched"
	"allscale/internal/transport"
	"allscale/internal/wire"
)

// Layer probes time one public function of one layer in isolation, so
// that a workload's per-op cost can be set against the cost of the
// layer calls it is made of. Each probe reports the median of up to
// probeCalls calls, cut short at probeBudget so that the whole set
// fits a benchmark run.
const (
	probeCalls    = 10000
	probeMinCalls = 200
	probeWarmup   = 50
	probeBudget   = 120 * time.Millisecond
)

type probe struct {
	name string
	unit time.Duration
	// batch is the number of calls per timing sample: 1 for calls long
	// enough to time singly, more for calls that a clock read would
	// dominate.
	batch int
	prep  func() error // untimed, before every sample
	call  func() error
}

// prober runs probes and collects their medians.
type prober struct {
	out metricSet
	err error // first failure
}

func (p *prober) fail(name string, err error) {
	p.out[name] = 0
	if p.err == nil {
		p.err = fmt.Errorf("probe %s: %w", name, err)
	}
}

func (p *prober) run(pr probe) {
	if pr.batch == 0 {
		pr.batch = 1
	}
	sample := func() (time.Duration, error) {
		if pr.prep != nil {
			if err := pr.prep(); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		for k := 0; k < pr.batch; k++ {
			if err := pr.call(); err != nil {
				return 0, err
			}
		}
		return time.Since(start), nil
	}
	for calls := 0; calls < probeWarmup; calls += pr.batch {
		if _, err := sample(); err != nil {
			p.fail(pr.name, err)
			return
		}
	}
	var samples []float64
	deadline := time.Now().Add(probeBudget)
	for calls := 0; calls < probeCalls && (calls < probeMinCalls || time.Now().Before(deadline)); calls += pr.batch {
		d, err := sample()
		if err != nil {
			p.fail(pr.name, err)
			return
		}
		samples = append(samples, float64(d)/float64(pr.batch)/float64(pr.unit))
	}
	p.out[pr.name] = median(samples)
}

// runProbes runs every layer probe. scratch hosts the journal probes.
func runProbes(seed int64, scratch string) (metricSet, error) {
	p := &prober{out: metricSet{}}
	for _, group := range []func(*prober, int64, string) error{
		probeCodecAndRegions, probeTransport, probeRuntime, probeDIM, probeSched, probeJobs, probeApps,
	} {
		if err := group(p, seed, scratch); err != nil && p.err == nil {
			p.err = err
		}
	}
	return p.out, p.err
}

func pt(x, y int) region.Point { return region.Point{x, y} }

func gridRegion(x0, y0, x1, y1 int) dataitem.GridRegion {
	return dataitem.GridRegionFromTo(pt(x0, y0), pt(x1, y1))
}

// probeCodecAndRegions covers the in-memory layers under a halo
// exchange: the numeric codec, box-set algebra, and fragment
// extract/insert/element access, all on the 64-cell row stencil-halo
// ships.
func probeCodecAndRegions(p *prober, _ int64, _ string) error {
	row := make([]float64, stencilN)
	for i := range row {
		row[i] = stencil.InitValue(1, i)
	}
	var buf []byte
	p.run(probe{name: "wire.encode_halo_ns", unit: time.Nanosecond, batch: 100, call: func() error {
		buf = wire.AppendNumeric(buf[:0], row)
		return nil
	}})
	enc := wire.AppendNumeric(nil, row)
	p.run(probe{name: "wire.decode_halo_ns", unit: time.Nanosecond, batch: 100, call: func() error {
		d := wire.NewDecoder(enc)
		if got := wire.DecodeNumeric[float64](d); len(got) != len(row) || d.Err() != nil {
			return fmt.Errorf("decoded %d values: %v", len(got), d.Err())
		}
		return nil
	}})

	// The region algebra of one halo step: own block ∪ halo, own block
	// with the neighbour's write carved out.
	own := region.BoxFromTo(pt(1, 1), pt(32, 32))
	halo := region.BoxFromTo(pt(0, 0), pt(33, 33))
	var sink region.BoxSet
	p.run(probe{name: "region.boxset_union_ns", unit: time.Nanosecond, batch: 100, call: func() error {
		sink = own.Union(halo)
		return nil
	}})
	p.run(probe{name: "region.boxset_difference_ns", unit: time.Nanosecond, batch: 100, call: func() error {
		sink = halo.Difference(own)
		return nil
	}})
	_ = sink

	typ := dataitem.NewGridType[float64]("probe.frag", pt(stencilN, stencilN))
	frag := typ.NewFragment().(*dataitem.GridFragment[float64])
	if err := frag.Resize(gridRegion(0, 0, 33, stencilN)); err != nil {
		return err
	}
	haloRow := gridRegion(32, 0, 33, stencilN)
	var payload []byte
	p.run(probe{name: "dataitem.extract_halo_us", unit: time.Microsecond, batch: 10, call: func() (err error) {
		payload, err = frag.Extract(haloRow)
		return err
	}})
	p.run(probe{name: "dataitem.insert_halo_us", unit: time.Microsecond, batch: 10, call: func() error {
		_, err := frag.Insert(payload)
		return err
	}})
	var cell float64
	p.run(probe{name: "dataitem.at_1block_ns", unit: time.Nanosecond, batch: 100, call: func() error {
		cell = frag.At(pt(31, 31))
		return nil
	}})
	// Sixteen disjoint bands: element access scans the block list.
	var bands region.BoxSet
	for i := 0; i < 16; i++ {
		bands = bands.Union(region.BoxFromTo(pt(4*i, 0), pt(4*i+2, stencilN)))
	}
	if err := frag.Resize(dataitem.GridRegion{B: bands}); err != nil {
		return err
	}
	p.run(probe{name: "dataitem.at_16blocks_ns", unit: time.Nanosecond, batch: 100, call: func() error {
		cell = frag.At(pt(61, 31))
		return nil
	}})
	_ = cell
	return nil
}

// pingPong returns a call that sends one frame from endpoint 0 to 1
// and waits for the echo.
func pingPong(a, b transport.Endpoint) func() error {
	back := make(chan struct{}, 1) // one echo in flight
	b.SetHandler(func(m transport.Message) { b.Send(m.From, "pong", m.Payload) })
	a.SetHandler(func(transport.Message) { back <- struct{}{} })
	payload := make([]byte, 64)
	return func() error {
		if err := a.Send(1, "ping", payload); err != nil {
			return err
		}
		select {
		case <-back:
			return nil
		case <-time.After(5 * time.Second):
			return fmt.Errorf("no echo within 5s")
		}
	}
}

func probeTransport(p *prober, _ int64, _ string) error {
	fab := transport.NewFabric(2)
	rtt := pingPong(fab.Endpoint(0), fab.Endpoint(1))
	fab.Start()
	p.run(probe{name: "transport.inproc_rtt_us", unit: time.Microsecond, call: rtt})
	fab.Close()

	eps, err := loopbackFabric(2)
	if err != nil {
		return err
	}
	defer eps[0].Close()
	defer eps[1].Close()
	p.run(probe{name: "transport.tcp_rtt_us", unit: time.Microsecond, call: pingPong(eps[0], eps[1])})
	// One-way: what Send costs its caller (framing and hand-off to the
	// connection's writer), the receiver discarding.
	eps[1].SetHandler(func(transport.Message) {})
	payload := make([]byte, 64)
	p.run(probe{name: "transport.tcp_oneway_us", unit: time.Microsecond, batch: 10, call: func() error {
		return eps[0].Send(1, "drop", payload)
	}})
	return nil
}

func probeRuntime(p *prober, _ int64, _ string) error {
	eps, err := loopbackFabric(2)
	if err != nil {
		return err
	}
	sys := runtime.NewSystemOver(eps)
	sys.Locality(1).Handle("echo", func(_ int, body []byte) ([]byte, error) { return body, nil })
	sys.Start()
	defer sys.Close()
	loc := sys.Locality(0)
	i := 0
	echo := func(opts ...runtime.CallOption) func() error {
		return func() error {
			i++
			var out int
			return loc.Call(1, "echo", i, &out, opts...)
		}
	}
	p.run(probe{name: "runtime.call_rtt_us", unit: time.Microsecond, call: echo()})
	p.run(probe{name: "runtime.call_supervised_rtt_us", unit: time.Microsecond,
		call: echo(runtime.WithDeadline(30*time.Second), runtime.WithRetries(5, 5*time.Second))})
	return nil
}

// acquireRelease returns a call that acquires and releases one
// requirement at the manager under fresh tokens.
func acquireRelease(m *dim.Manager, req dim.Requirement) func() error {
	token := uint64(1) << 40
	return func() error {
		token++
		if err := m.Acquire(token, []dim.Requirement{req}); err != nil {
			return err
		}
		m.Release(token)
		return nil
	}
}

func probeDIM(p *prober, _ int64, _ string) error {
	sys, err := newSystem(core.Config{})
	if err != nil {
		return err
	}
	typ := dataitem.NewGridType[float64]("probe.grid", pt(stencilN, stencilN))
	sys.RegisterType(typ)
	sys.Start()
	defer sys.Close()
	m0, m1 := sys.Manager(0), sys.Manager(1)
	id, err := m0.CreateItem(typ)
	if err != nil {
		return err
	}
	upper := dim.Requirement{Item: id, Region: gridRegion(0, 0, 32, stencilN), Mode: dim.Write}
	lower := dim.Requirement{Item: id, Region: gridRegion(32, 0, stencilN, stencilN), Mode: dim.Write}
	writeLower := acquireRelease(m1, lower)
	if err := acquireRelease(m0, upper)(); err != nil {
		return err
	}
	if err := writeLower(); err != nil {
		return err
	}
	p.run(probe{name: "dim.acquire_local_us", unit: time.Microsecond, call: acquireRelease(m0, upper)})
	// A halo read is remote only while the owner's last write has
	// invalidated the reader's replica: rewrite before every sample.
	haloRead := dim.Requirement{Item: id, Region: gridRegion(32, 0, 33, stencilN), Mode: dim.Read}
	p.run(probe{name: "dim.acquire_remote_read_us", unit: time.Microsecond,
		prep: writeLower, call: acquireRelease(m0, haloRead)})

	full := gridRegion(0, 0, stencilN, stencilN)
	if _, err := m0.Lookup(id, full); err != nil {
		return err
	}
	lookup := func() error {
		_, err := m0.Lookup(id, full)
		return err
	}
	p.run(probe{name: "dim.locate_hit_ns", unit: time.Nanosecond, batch: 20, call: lookup})
	m0.SetLocateCache(false)
	p.run(probe{name: "dim.locate_walk_us", unit: time.Microsecond, call: lookup})
	m0.SetLocateCache(true)

	// Ownership migration: the row changes hands on every call.
	row := dim.Requirement{Item: id, Region: gridRegion(31, 0, 32, stencilN), Mode: dim.Write}
	take := []func() error{acquireRelease(m1, row), acquireRelease(m0, row)}
	turn := 0
	p.run(probe{name: "dim.acquire_remote_write_us", unit: time.Microsecond, call: func() error {
		turn++
		return take[turn%2]()
	}})

	p.run(probe{name: "dim.item_create_destroy_us", unit: time.Microsecond, call: func() error {
		tmp, err := m0.CreateItem(typ)
		if err != nil {
			return err
		}
		return m0.DestroyItem(tmp)
	}})
	return nil
}

func probeSched(p *prober, _ int64, _ string) error {
	sys, err := newSystem(core.Config{Workers: 1})
	if err != nil {
		return err
	}
	typ := dataitem.NewGridType[float64]("probe.sched", pt(stencilN, stencilN))
	sys.RegisterType(typ)
	var item dim.ItemID
	remote := gridRegion(32, 0, stencilN, stencilN)
	sys.RegisterKind(func(int) *sched.Kind {
		return &sched.Kind{Name: "probe.noop", Process: func(*sched.Ctx) (any, error) { return nil, nil }}
	})
	// A task whose write requirement rank 1 covers: Algorithm 2 ships it.
	sys.RegisterKind(func(int) *sched.Kind {
		return &sched.Kind{
			Name: "probe.there",
			Reqs: func([]byte) []dim.Requirement {
				return []dim.Requirement{{Item: item, Region: remote, Mode: dim.Write}}
			},
			Process: func(*sched.Ctx) (any, error) { return nil, nil },
		}
	})
	core.RegisterPFor(sys, core.PForSpec{
		Name: "probe.leaf", MinGrain: 64,
		Body: func(*sched.Ctx, region.Point, []byte) {},
	})
	sys.Start()
	defer sys.Close()
	if item, err = sys.Manager(0).CreateItem(typ); err != nil {
		return err
	}
	if err := acquireRelease(sys.Manager(1), dim.Requirement{Item: item, Region: remote, Mode: dim.Write})(); err != nil {
		return err
	}
	spawnWait := func(kind string) func() error {
		return func() error { return sys.Wait(kind, struct{}{}, nil) }
	}
	p.run(probe{name: "sched.spawn_local_us", unit: time.Microsecond, call: spawnWait("probe.noop")})
	p.run(probe{name: "sched.spawn_remote_us", unit: time.Microsecond, call: spawnWait("probe.there")})
	// Windowed: 64 spawns in flight before the first wait, the cost of
	// a task when spawn latency overlaps.
	const window = 64
	futs := make([]*runtime.Future, 0, window)
	p.run(probe{name: "sched.spawn_windowed_us", unit: time.Microsecond, batch: window,
		prep: func() error {
			for _, f := range futs {
				if _, err := f.Wait(); err != nil {
					return err
				}
			}
			futs = futs[:0]
			return nil
		},
		call: func() error {
			f, err := sys.Spawn("probe.noop", struct{}{})
			futs = append(futs, f)
			return err
		}})
	for _, f := range futs {
		f.Wait()
	}
	p.run(probe{name: "core.pfor_single_leaf_us", unit: time.Microsecond, call: func() error {
		return sys.PFor("probe.leaf", region.Point{0}, region.Point{64}, nil)
	}})
	return nil
}

func probeJobs(p *prober, _ int64, scratch string) error {
	dir, err := os.MkdirTemp(scratch, "probe-jobs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	store, _, err := jobs.OpenStore(dir+"/raw", jobs.StoreOptions{Fsync: jobs.FsyncIntervalPolicy})
	if err != nil {
		return err
	}
	record := make([]byte, 96) // the size of an admit record with a submit token
	p.run(probe{name: "jobs.journal_append_us", unit: time.Microsecond, batch: 10, call: func() error {
		return store.Append(record)
	}})
	store.Close()

	sys, err := newSystem(core.Config{Workers: 1})
	if err != nil {
		return err
	}
	w := jobs.RegisterWorkloads(sys, jobs.WorkloadConfig{StencilSizes: []int{32}})
	sys.Start()
	defer sys.Close()
	// Submit is timed alone; the job (one trivial task) finishes
	// untimed before the next sample so no backlog builds up.
	var svc *jobs.Service
	var last uint64
	trivial := jobs.JobSpec{Family: jobs.FamilyPFor, Params: jobs.PForParams{Levels: 0, Spin: 1}}
	submit := probe{unit: time.Microsecond,
		prep: func() error {
			if last == 0 {
				return nil
			}
			_, err := svc.Wait(last)
			return err
		},
		call: func() (err error) {
			last, err = svc.Submit("probe", trivial)
			return err
		}}
	for _, mode := range []struct {
		name string
		cfg  jobs.Config
	}{
		{"jobs.submit_mem_us", jobs.Config{}},
		{"jobs.submit_journal_us", jobs.Config{StateDir: dir + "/svc", Fsync: jobs.FsyncIntervalPolicy}},
	} {
		if svc, err = jobs.Open(sys, w, mode.cfg); err != nil {
			return err
		}
		last = 0
		submit.name = mode.name
		p.run(submit)
		if mode.cfg.StateDir == "" {
			svc.Close()
		}
	}
	defer svc.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := jobs.Serve(svc, ln, nil)
	defer srv.Close()
	cli, err := jobs.Dial(srv.Addr().String())
	if err != nil {
		return err
	}
	defer cli.Close()
	if _, err := svc.Wait(last); err != nil {
		return err
	}
	p.run(probe{name: "jobs.proto_status_rtt_us", unit: time.Microsecond, call: func() error {
		_, err := cli.Status(last)
		return err
	}})
	return nil
}

// probeApps times the sequential kernels the two application
// workloads distribute: op_p50_ms over these is the runtime's overhead
// factor.
func probeApps(p *prober, seed int64, _ string) error {
	// One call runs 50 steps, so that the field's allocation and
	// initialisation are a few percent of it; the unit makes the
	// reported value µs per step.
	const steps = 50
	p.run(probe{name: "apps.stencil_seq_step_us", unit: steps * time.Microsecond, call: func() error {
		stencil.RunSequential(stencil.Params{N: stencilN, Steps: steps, C: 0.1})
		return nil
	}})

	tp := tpcParams(seed)
	tree := tpc.BuildTree(tpc.GeneratePoints(tp.NumPoints, tp.Seed), tp.Height)
	queries := tpc.GenerateQueries(tp.NumQueries, tp.Seed)
	i := 0
	var count int64
	p.run(probe{name: "apps.tpc_seq_query_us", unit: time.Microsecond, batch: 10, call: func() error {
		count += tree.CountSequential(queries[i%len(queries)], tp.Radius)
		i++
		return nil
	}})
	_ = count
	return nil
}
