// Stencil example: the 2-d heat-diffusion kernel of Sections 3.4
// and 4 (Fig. 6), run on a simulated multi-node cluster and verified
// against the sequential reference of Fig. 6a.
//
// Run with:
//
//	go run ./examples/stencil [-n 128] [-steps 10] [-localities 4] [-trace out.json] [-crash] [-chaos seed,drop,delay]
//
// With -trace, the run records task-lifecycle, RPC and data-item
// spans on every rank and writes a Chrome trace_event JSON file
// loadable in about:tracing or https://ui.perfetto.dev.
//
// With -crash, the run demonstrates the crash-recovery subsystem: the
// computation is checkpointed halfway, one locality is killed during
// the second half, the failure detector excludes it, the survivors
// roll back and re-home its data, and the second half re-runs on the
// remaining localities — still producing the bit-identical result.
//
// With -drain and/or -join, the run demonstrates elastic membership
// (DESIGN.md §6g): -drain gracefully retires one locality at the
// midpoint — its queued tasks re-ship, its fragments migrate, and it
// leaves without tripping the failure detector; -join provisions one
// latent spare locality and admits it at the midpoint — it is fenced
// into the current epoch, receives a share of the grid as warm-up, and
// serves placements for the second half. Either way the result stays
// bit-identical to the sequential reference.
//
// With -chaos seed,drop,delay (e.g. -chaos 1,0.05,0.2), every
// endpoint is wrapped in a seeded fault-injection layer: frames are
// dropped with probability `drop` and delayed/reordered with
// probability `delay`, both call planes get a deadline, and the run
// still verifies bit-identical — the links of DESIGN.md §6d resend what
// is lost and deliver each frame once. The injected fault and resend
// counters are printed at the end.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"allscale/internal/apps/stencil"
	"allscale/internal/chaos"
	"allscale/internal/core"
	"allscale/internal/recovery"
	"allscale/internal/resilience"
	"allscale/internal/runtime"
	"allscale/internal/trace"
	"allscale/internal/transport"
)

func main() {
	n := flag.Int("n", 128, "grid edge length")
	steps := flag.Int("steps", 10, "time steps")
	localities := flag.Int("localities", 4, "simulated cluster nodes")
	traceOut := flag.String("trace", "", "write a Chrome trace_event JSON file of the run")
	crash := flag.Bool("crash", false, "kill a locality mid-run and recover from a checkpoint")
	join := flag.Bool("join", false, "provision a latent spare locality and join it mid-run")
	drain := flag.Bool("drain", false, "gracefully drain one locality mid-run")
	chaosSpec := flag.String("chaos", "", "run over a seeded lossy fabric: seed,drop,delay (e.g. 1,0.05,0.2)")
	flag.Parse()

	p := stencil.Params{N: *n, Steps: *steps, C: 0.1, MinGrain: 1024}

	if *crash {
		runCrashDemo(p, *localities, *traceOut)
		return
	}
	if *join || *drain {
		runElasticDemo(p, *localities, *join, *drain, *traceOut)
		return
	}
	if *chaosSpec != "" {
		runChaosDemo(p, *localities, *chaosSpec)
		return
	}

	fmt.Printf("2D stencil, %d x %d, %d steps, %d localities\n", *n, *n, *steps, *localities)

	seqStart := time.Now()
	want := stencil.RunSequential(p)
	seqDur := time.Since(seqStart)

	cfg := core.Config{Localities: *localities}
	if *traceOut != "" {
		cfg.TraceCapacity = trace.DefaultCapacity
	}
	sys := core.NewSystem(cfg)
	app := stencil.NewAllScale(sys, p)
	sys.Start()
	start := time.Now()
	var got []float64
	err := app.Run()
	if err == nil {
		got, err = app.Result()
	}
	dur := time.Since(start)
	if *traceOut != "" {
		f, ferr := os.Create(*traceOut)
		if ferr != nil {
			log.Fatal(ferr)
		}
		if werr := sys.WriteChromeTrace(f); werr != nil {
			log.Fatal(werr)
		}
		if cerr := f.Close(); cerr != nil {
			log.Fatal(cerr)
		}
		fmt.Printf("trace written to %s (open in about:tracing or ui.perfetto.dev)\n", *traceOut)
	}
	sys.Close()
	if err != nil {
		log.Fatal(err)
	}

	for i := range want {
		if got[i] != want[i] {
			log.Fatalf("verification FAILED at cell %d: %v != %v", i, got[i], want[i])
		}
	}

	interior := float64((*n - 2) * (*n - 2))
	flops := interior * stencil.FlopsPerCell * float64(*steps)
	fmt.Printf("sequential reference: %8.1f ms\n", seqDur.Seconds()*1000)
	fmt.Printf("allscale runtime:     %8.1f ms  (%.2f MFLOPS, incl. distribution management)\n",
		dur.Seconds()*1000, flops/dur.Seconds()/1e6)
	fmt.Println("verification: OK — results bit-identical to the sequential version")

	// Also run the MPI reference for comparison.
	start = time.Now()
	mpiOut, err := stencil.RunMPI(*localities, p)
	if err != nil {
		log.Fatal(err)
	}
	mpiDur := time.Since(start)
	for i := range want {
		if mpiOut[i] != want[i] {
			log.Fatalf("MPI verification FAILED at cell %d", i)
		}
	}
	fmt.Printf("mpi reference:        %8.1f ms\n", mpiDur.Seconds()*1000)
}

// runCrashDemo is the -crash walkthrough: checkpoint at the midpoint,
// kill one locality during the second half, let the recovery
// coordinator detect and exclude it, roll back, and finish on the
// survivors.
func runCrashDemo(p stencil.Params, localities int, traceOut string) {
	if localities < 2 {
		log.Fatal("-crash needs at least 2 localities")
	}
	mid := p.Steps / 2
	victim := localities / 2
	fmt.Printf("2D stencil with crash recovery, %d x %d, %d steps, %d localities\n", p.N, p.N, p.Steps, localities)
	want := stencil.RunSequential(p)

	cfg := core.Config{
		Localities: localities,
		Recovery:   core.RecoveryConfig{Heartbeat: 25 * time.Millisecond, Timeout: 150 * time.Millisecond},
	}
	if traceOut != "" {
		cfg.TraceCapacity = trace.DefaultCapacity
	}
	sys := core.NewSystem(cfg)
	app := stencil.NewAllScale(sys, p)
	sys.Start()
	defer sys.Close()
	rec := recovery.Attach(sys, recovery.Options{})

	start := time.Now()
	if err := app.CreateItems(); err != nil {
		log.Fatal(err)
	}
	if err := app.Init(); err != nil {
		log.Fatal(err)
	}
	if err := app.RunSteps(0, mid); err != nil {
		log.Fatal(err)
	}
	cp, err := resilience.Capture(sys, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint after step %d: %d fragment records, %d bytes\n", mid, len(cp.Records), cp.Size())

	// Second half, with the victim crashing shortly into it.
	phaseErr := make(chan error, 1)
	go func() { phaseErr <- app.RunSteps(mid, p.Steps) }()
	time.Sleep(5 * time.Millisecond)
	fmt.Printf("killing locality %d mid-computation...\n", victim)
	sys.Kill(victim)
	if err := <-phaseErr; err != nil {
		fmt.Printf("task wave unwound: %v\n", err)
	}
	if !rec.WaitDeaths(1, 10*time.Second) {
		log.Fatalf("failure detector missed the crash (dead = %v)", rec.DeadRanks())
	}
	fmt.Printf("failure detected, dead ranks: %v\n", rec.DeadRanks())
	if err := rec.Restore(cp); err != nil {
		log.Fatal(err)
	}
	reg := sys.Metrics(0)
	fmt.Printf("rolled back to checkpoint: %d records re-homed onto survivors, %d lost tasks requeued\n",
		reg.CounterValue(recovery.MetricRehomed), reg.CounterValue(recovery.MetricRequeued))
	if err := app.RunSteps(mid, p.Steps); err != nil {
		log.Fatalf("re-run on %d survivors: %v", localities-1, err)
	}
	got, err := app.Result()
	if err != nil {
		log.Fatal(err)
	}
	dur := time.Since(start)

	if traceOut != "" {
		f, ferr := os.Create(traceOut)
		if ferr != nil {
			log.Fatal(ferr)
		}
		if werr := sys.WriteChromeTrace(f); werr != nil {
			log.Fatal(werr)
		}
		if cerr := f.Close(); cerr != nil {
			log.Fatal(cerr)
		}
		fmt.Printf("trace written to %s (recovery.* spans mark detection and rollback)\n", traceOut)
	}

	for i := range want {
		if got[i] != want[i] {
			log.Fatalf("verification FAILED at cell %d: %v != %v", i, got[i], want[i])
		}
	}
	fmt.Printf("total with crash and recovery: %.1f ms\n", dur.Seconds()*1000)
	fmt.Printf("verification: OK — results bit-identical to the sequential version despite losing locality %d\n", victim)
}

// runElasticDemo is the -join / -drain walkthrough: the membership
// changes at the midpoint of the computation — a graceful drain
// (fragments migrated, backlog re-shipped, no failure detection)
// and/or the admission of a latent spare (epoch handshake, index-tree
// reshape, grid warm-up) — and the run still verifies bit-identical.
func runElasticDemo(p stencil.Params, localities int, join, drain bool, traceOut string) {
	if drain && localities < 2 {
		log.Fatal("-drain needs at least 2 localities")
	}
	capacity := localities
	if join {
		capacity++ // provision one latent spare beyond the initial membership
	}
	mid := p.Steps / 2
	fmt.Printf("2D stencil with elastic membership, %d x %d, %d steps, %d localities (capacity %d)\n",
		p.N, p.N, p.Steps, localities, capacity)
	want := stencil.RunSequential(p)

	cfg := core.Config{
		Localities: capacity,
		Recovery:   core.RecoveryConfig{Heartbeat: 25 * time.Millisecond, Timeout: 150 * time.Millisecond},
	}
	if join {
		cfg.Latent = []int{capacity - 1}
	}
	if traceOut != "" {
		cfg.TraceCapacity = trace.DefaultCapacity
	}
	sys := core.NewSystem(cfg)
	app := stencil.NewAllScale(sys, p)
	sys.Start()
	defer sys.Close()
	rec := recovery.Attach(sys, recovery.Options{})

	start := time.Now()
	if err := app.CreateItems(); err != nil {
		log.Fatal(err)
	}
	if err := app.Init(); err != nil {
		log.Fatal(err)
	}
	if err := app.RunSteps(0, mid); err != nil {
		log.Fatal(err)
	}

	if drain {
		victim := localities / 2
		fmt.Printf("draining locality %d after step %d...\n", victim, mid)
		if err := rec.Drain(victim); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("locality %d departed gracefully; live ranks now %v\n", victim, sys.Locality(0).LiveRanks())
	}
	if join {
		spare := capacity - 1
		fmt.Printf("joining latent locality %d after step %d...\n", spare, mid)
		if err := rec.Join(spare); err != nil {
			log.Fatal(err)
		}
		reg := sys.Metrics(0)
		fmt.Printf("locality %d joined; warm-up migrated %d bytes in %d µs; live ranks now %v\n",
			spare, reg.CounterValue(recovery.MetricWarmupBytes),
			reg.CounterValue(recovery.MetricWarmupUs), sys.Locality(0).LiveRanks())
	}

	if err := app.RunSteps(mid, p.Steps); err != nil {
		log.Fatal(err)
	}
	got, err := app.Result()
	if err != nil {
		log.Fatal(err)
	}
	dur := time.Since(start)

	if traceOut != "" {
		f, ferr := os.Create(traceOut)
		if ferr != nil {
			log.Fatal(ferr)
		}
		if werr := sys.WriteChromeTrace(f); werr != nil {
			log.Fatal(werr)
		}
		if cerr := f.Close(); cerr != nil {
			log.Fatal(cerr)
		}
		fmt.Printf("trace written to %s (recovery.join / recovery.drain spans mark the membership changes)\n", traceOut)
	}

	for i := range want {
		if got[i] != want[i] {
			log.Fatalf("verification FAILED at cell %d: %v != %v", i, got[i], want[i])
		}
	}
	if dead := rec.DeadRanks(); len(dead) != 0 {
		log.Fatalf("membership change tripped the failure detector: %v", dead)
	}
	rep := rec.Report()
	fmt.Printf("total with membership changes: %.1f ms (drained %v, joined %v, zero deaths)\n",
		dur.Seconds()*1000, rep.Drained, rep.Joined)
	fmt.Println("verification: OK — results bit-identical to the sequential version across the drain/join")
}

// runChaosDemo is the -chaos walkthrough: the whole computation runs
// over a seeded lossy fabric (drops and delay/reorder on every link)
// with both call planes under a deadline, and must still verify
// bit-identical against the sequential reference — each link resends
// what the fabric drops and hands every frame to dispatch once.
func runChaosDemo(p stencil.Params, localities int, spec string) {
	parts := strings.Split(spec, ",")
	if len(parts) != 3 {
		log.Fatalf("-chaos wants seed,drop,delay (e.g. 1,0.05,0.2), got %q", spec)
	}
	seed, err := strconv.ParseInt(strings.TrimSpace(parts[0]), 10, 64)
	if err != nil {
		log.Fatalf("-chaos seed: %v", err)
	}
	drop, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
	if err != nil {
		log.Fatalf("-chaos drop: %v", err)
	}
	delay, err := strconv.ParseFloat(strings.TrimSpace(parts[2]), 64)
	if err != nil {
		log.Fatalf("-chaos delay: %v", err)
	}
	fmt.Printf("2D stencil over a lossy fabric, %d x %d, %d steps, %d localities (seed %d, drop %.1f%%, delay %.1f%%)\n",
		p.N, p.N, p.Steps, localities, seed, drop*100, delay*100)
	want := stencil.RunSequential(p)

	fab := transport.NewFabric(localities)
	eps := make([]transport.Endpoint, localities)
	for i := range eps {
		eps[i] = chaos.Wrap(fab.Endpoint(i), nil, chaos.Config{
			Seed: seed, Drop: drop, Delay: delay, MaxDelay: time.Millisecond,
		})
	}
	// The links resend what the fabric loses; the deadlines bound how
	// long a call waits on a rank that stopped answering.
	calls := runtime.CallProfile{
		Control: runtime.CallSpec{Deadline: 30 * time.Second},
		Data:    runtime.CallSpec{Deadline: 60 * time.Second},
	}
	sys := core.NewSystem(core.Config{Endpoints: eps, Calls: &calls})
	app := stencil.NewAllScale(sys, p)
	sys.Start()
	fab.Start()

	start := time.Now()
	err = app.Run()
	var got []float64
	if err == nil {
		got, err = app.Result()
	}
	dur := time.Since(start)

	var drops, dups, delays, retries, duplicates uint64
	for r := 0; r < localities; r++ {
		reg := sys.Metrics(r)
		drops += reg.CounterValue(chaos.MetricDrops)
		dups += reg.CounterValue(chaos.MetricDups)
		delays += reg.CounterValue(chaos.MetricDelays)
		retries += reg.CounterValue(runtime.MetricRPCRetries)
		duplicates += reg.CounterValue(runtime.MetricRPCDuplicates)
	}
	sys.Close()
	fab.Close()
	if err != nil {
		log.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			log.Fatalf("verification FAILED at cell %d: %v != %v", i, got[i], want[i])
		}
	}
	fmt.Printf("allscale runtime: %.1f ms under injected faults\n", dur.Seconds()*1000)
	fmt.Printf("injected: %d drops, %d delays, %d dups — absorbed by %d link resends and %d duplicate frames dropped\n",
		drops, delays, dups, retries, duplicates)
	fmt.Println("verification: OK — results bit-identical to the sequential version despite the lossy fabric")
}
