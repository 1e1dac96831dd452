package jobs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"allscale/internal/apps/ipic3d"
	"allscale/internal/apps/tpc"
	"allscale/internal/core"
	"allscale/internal/sched"
)

// newTestService boots an n-locality in-process system with the
// workload registry and a service over it.
func newTestService(t *testing.T, n int, cfg Config, wcfg WorkloadConfig) (*core.System, *Service) {
	t.Helper()
	return newTestServiceWorkers(t, n, 2, cfg, wcfg)
}

func newTestServiceWorkers(t *testing.T, n, workers int, cfg Config, wcfg WorkloadConfig) (*core.System, *Service) {
	t.Helper()
	sys := core.NewSystem(core.Config{Localities: n, Workers: workers, TraceCapacity: 1 << 14})
	w := RegisterWorkloads(sys, wcfg)
	sys.Start()
	svc := New(sys, w, cfg)
	t.Cleanup(func() {
		svc.Close()
		sys.Close()
	})
	return sys, svc
}

func mustSubmit(t *testing.T, svc *Service, tenant, family string, params any) uint64 {
	t.Helper()
	id, err := svc.Submit(tenant, JobSpec{Family: family, Params: params})
	if err != nil {
		t.Fatalf("submit %s/%s: %v", tenant, family, err)
	}
	return id
}

func waitState(t *testing.T, svc *Service, id uint64, want JobState) JobStatus {
	t.Helper()
	st, err := svc.Wait(id)
	if err != nil {
		t.Fatalf("wait %d: %v", id, err)
	}
	if st.State != want.String() {
		t.Fatalf("job %d ended %q (err %q), want %q", id, st.State, st.Error, want)
	}
	return st
}

// TestFamiliesMatchOracles runs one job of every family and checks the
// results against the sequential oracles.
func TestFamiliesMatchOracles(t *testing.T) {
	_, svc := newTestService(t, 2, Config{}, WorkloadConfig{})

	pforID := mustSubmit(t, svc, "acme", FamilyPFor, PForParams{Levels: 5, Seed: 7})
	stencilID := mustSubmit(t, svc, "acme", FamilyStencil, StencilParams{N: 32, Steps: 3})
	tpcID := mustSubmit(t, svc, "beta", FamilyTPC,
		TPCParams{NumPoints: 256, Height: 5, Radius: 0.2, NumQueries: 8, Seed: 3})
	ipicID := mustSubmit(t, svc, "beta", FamilyIPiC3D,
		IPiC3DParams{N: 4, Steps: 2, PartsPerCell: 2, Seed: 1})

	if got, want := waitState(t, svc, pforID, Done).Result,
		fmt.Sprintf("%#x", DagValue(5, 64, 7)); got != want {
		t.Errorf("pfor result %s, want %s", got, want)
	}
	if got, want := waitState(t, svc, stencilID, Done).Result,
		checksum(StencilOracle(32, 3, 0.1)); got != want {
		t.Errorf("stencil result %s, want %s", got, want)
	}
	var tpcSum int64
	for _, c := range tpc.RunSequential(tpc.Params{NumPoints: 256, Height: 5, Radius: 0.2, NumQueries: 8, Seed: 3}) {
		tpcSum += c
	}
	if got, want := waitState(t, svc, tpcID, Done).Result, fmt.Sprintf("%d", tpcSum); got != want {
		t.Errorf("tpc result %s, want %s", got, want)
	}
	ipicSt := ipic3d.RunSequential(ipic3d.Params{N: 4, Steps: 2, PartsPerCell: 2, Dt: 0.1, Seed: 1})
	if got, want := waitState(t, svc, ipicID, Done).Result,
		fmt.Sprintf("%d", ipicSt.TotalParticles()); got != want {
		t.Errorf("ipic3d result %s, want %s", got, want)
	}

	// Timestamps are causally ordered and the first-exec stamp landed.
	st, _ := svc.Status(pforID)
	if st.FirstExec.IsZero() || st.FirstExec.Before(st.Submitted) || st.Finished.Before(st.FirstExec) {
		t.Errorf("timestamps out of order: %+v", st)
	}
}

// TestStencilJobMatchesPointwiseReference checks the row kernel the
// stencil family shares with apps/stencil against the update written out
// cell by cell, on fragments cut into many blocks (grain 16 on four
// localities: most rows take the kernel's per-cell fallback) and on whole
// bands (one leaf per locality).
func TestStencilJobMatchesPointwiseReference(t *testing.T) {
	const n, steps, c = 32, 5, 0.17
	a, b := make([]float64, n*n), make([]float64, n*n)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			a[x*n+y], b[x*n+y] = StencilInitValue(x, y), StencilInitValue(x, y)
		}
	}
	for s := 0; s < steps; s++ {
		for x := 1; x < n-1; x++ {
			for y := 1; y < n-1; y++ {
				center := a[x*n+y]
				b[x*n+y] = center + c*(a[(x-1)*n+y]+a[(x+1)*n+y]+a[x*n+y-1]+a[x*n+y+1]-4*center)
			}
		}
		a, b = b, a
	}
	if got := StencilOracle(n, steps, c); !slices.Equal(got, a) {
		t.Fatal("StencilOracle differs from the cell-by-cell reference")
	}
	for _, grain := range []int64{16, 256} {
		_, svc := newTestService(t, 4, Config{}, WorkloadConfig{StencilSizes: []int{n}, PForMinGrain: grain})
		id := mustSubmit(t, svc, "t", FamilyStencil, StencilParams{N: n, Steps: steps, C: c})
		if got, want := waitState(t, svc, id, Done).Result, checksum(a); got != want {
			t.Errorf("grain %d: stencil job result %s, want %s", grain, got, want)
		}
	}
}

// blockerParams is a single-leaf DAG that spins long enough to hold
// its active slot while the test makes synchronous assertions.
var blockerParams = PForParams{Levels: 0, Spin: 500_000_000, Seed: 1}

// TestAdmissionRejections drives every rejection reason and checks
// the rejected counters.
func TestAdmissionRejections(t *testing.T) {
	_, svc := newTestService(t, 1, Config{MaxActive: 1, MaxBacklog: 3}, WorkloadConfig{})
	if err := svc.RegisterTenant("t", Quota{MaxActive: 1, MaxPending: 2, MaxBytes: 20000}); err != nil {
		t.Fatal(err)
	}

	if _, err := svc.Submit("t", JobSpec{Family: "nope"}); !errors.Is(err, ErrUnknownFamily) {
		t.Fatalf("unknown family: got %v", err)
	}
	if _, err := svc.Submit("t", JobSpec{Family: FamilyPFor, Params: PForParams{Levels: 25}}); !errors.Is(err, ErrBadParams) {
		t.Fatalf("bad params: got %v", err)
	}

	// Occupy the single active slot, then fill the pending queue.
	blocker := mustSubmit(t, svc, "t", FamilyPFor, blockerParams)
	waitRunning(t, svc, blocker)

	mustSubmit(t, svc, "t", FamilyStencil, StencilParams{N: 32, Steps: 1}) // 16384 bytes pending
	if _, err := svc.Submit("t", JobSpec{Family: FamilyStencil, Params: StencilParams{N: 32, Steps: 1}}); !errors.Is(err, ErrTenantMemory) {
		t.Fatalf("memory quota: got %v", err)
	}
	mustSubmit(t, svc, "t", FamilyPFor, PForParams{Levels: 1}) // 0 bytes, fills MaxPending=2
	if _, err := svc.Submit("t", JobSpec{Family: FamilyPFor, Params: PForParams{Levels: 1}}); !errors.Is(err, ErrTenantPending) {
		t.Fatalf("pending quota: got %v", err)
	}

	// Another tenant pushes the service-wide backlog to its cap.
	mustSubmit(t, svc, "u", FamilyPFor, PForParams{Levels: 1})
	if _, err := svc.Submit("u", JobSpec{Family: FamilyPFor, Params: PForParams{Levels: 1}}); !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("backlog full: got %v", err)
	}

	tid, err := svc.TenantID("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.reg.Counter(MetricRejected(tid)).Value(); got != 4 {
		t.Errorf("tenant t rejected counter = %d, want 4", got)
	}
	for _, ts := range svc.Tenants() {
		if ts.Name == "t" && ts.Rejected != 4 {
			t.Errorf("TenantStatus rejected = %d, want 4", ts.Rejected)
		}
	}
}

func waitRunning(t *testing.T, svc *Service, id uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := svc.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == Running.String() {
			return
		}
		if st.State != Pending.String() {
			t.Fatalf("job %d reached %q while waiting for running", id, st.State)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d still %q", id, st.State)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCancelPendingAndRunning cancels a queued job (must never start)
// and a running stencil job (its task tree dies, its per-job data
// items are destroyed — no orphaned fragments), then verifies the
// substrate is clean by running a fresh job to completion.
func TestCancelPendingAndRunning(t *testing.T) {
	sys, svc := newTestService(t, 2, Config{MaxActive: 1}, WorkloadConfig{})

	baseline := make([]int, sys.Size())
	for r := range baseline {
		baseline[r] = len(sys.Manager(r).Items())
	}

	// A long-running stencil occupies the slot; a second job queues.
	runner := mustSubmit(t, svc, "t", FamilyStencil, StencilParams{N: 32, Steps: 60000})
	queued := mustSubmit(t, svc, "t", FamilyPFor, PForParams{Levels: 2})
	waitRunning(t, svc, runner)

	if err := svc.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	st := waitState(t, svc, queued, Cancelled)
	if !st.Started.IsZero() || !st.FirstExec.IsZero() {
		t.Errorf("cancelled pending job has start stamps: %+v", st)
	}

	// Cancel the running job once its tasks actually execute.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, _ := svc.Status(runner); !st.FirstExec.IsZero() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("runner never executed a task")
		}
		time.Sleep(time.Millisecond)
	}
	if err := svc.Cancel(runner); err != nil {
		t.Fatal(err)
	}
	st = waitState(t, svc, runner, Cancelled)
	if !IsJobCancelledMessage(st.Error) {
		t.Errorf("cancelled job error = %q, want the sched cancellation sentinel", st.Error)
	}

	// No orphaned fragments: the per-job grid items are gone again — at
	// rank 0, which destroyed them, at once; at rank 1 once the destroy
	// notices nobody waits for have landed.
	for r := 0; r < sys.Size(); r++ {
		deadline := time.Now().Add(5 * time.Second)
		for r > 0 && len(sys.Manager(r).Items()) != baseline[r] && time.Now().Before(deadline) {
			time.Sleep(100 * time.Microsecond)
		}
		if got := len(sys.Manager(r).Items()); got != baseline[r] {
			t.Errorf("rank %d holds %d items after cancel, want %d (orphaned fragments)",
				r, got, baseline[r])
		}
	}

	// Cancelling a finished job is a no-op; unknown jobs error.
	if err := svc.Cancel(runner); err != nil {
		t.Errorf("re-cancel: %v", err)
	}
	if err := svc.Cancel(9999); !errors.Is(err, ErrNoSuchJob) {
		t.Errorf("cancel unknown: %v", err)
	}

	// The substrate still works: a fresh stencil matches the oracle.
	fresh := mustSubmit(t, svc, "t", FamilyStencil, StencilParams{N: 32, Steps: 3})
	if got, want := waitState(t, svc, fresh, Done).Result, checksum(StencilOracle(32, 3, 0.1)); got != want {
		t.Errorf("post-cancel stencil result %s, want %s", got, want)
	}
}

// IsJobCancelledMessage reports whether an error string carries the
// scheduler's cancellation sentinel (states travel as strings through
// the protocol).
func IsJobCancelledMessage(msg string) bool {
	return msg != "" && IsJobCancelledErr(errors.New(msg))
}

// IsJobCancelledErr adapts sched.IsJobCancelled for the tests.
func IsJobCancelledErr(err error) bool { return sched.IsJobCancelled(err) }

// TestNoCrossTenantLeakage runs jobs from two tenants and checks that
// (a) the per-tenant scheduler counters partition the executed-task
// total exactly, and (b) the per-job trace subtrees are disjoint.
func TestNoCrossTenantLeakage(t *testing.T) {
	sys, svc := newTestService(t, 2, Config{}, WorkloadConfig{})

	var aIDs, bIDs []uint64
	for i := 0; i < 3; i++ {
		aIDs = append(aIDs, mustSubmit(t, svc, "alpha", FamilyPFor, PForParams{Levels: 4, Seed: uint64(i)}))
		bIDs = append(bIDs, mustSubmit(t, svc, "bravo", FamilyPFor, PForParams{Levels: 4, Seed: uint64(100 + i)}))
	}
	for _, id := range append(append([]uint64{}, aIDs...), bIDs...) {
		waitState(t, svc, id, Done)
	}

	aID, _ := svc.TenantID("alpha")
	bID, _ := svc.TenantID("bravo")
	var aExec, bExec, total uint64
	for r := 0; r < sys.Size(); r++ {
		aExec += sys.Metrics(r).CounterValue(sched.TenantExecutedMetric(aID))
		bExec += sys.Metrics(r).CounterValue(sched.TenantExecutedMetric(bID))
		total += sys.Metrics(r).CounterValue(sched.MetricExecuted)
	}
	if aExec == 0 || bExec == 0 {
		t.Fatalf("tenant execution counters empty: alpha=%d bravo=%d", aExec, bExec)
	}
	if aExec+bExec != total {
		t.Errorf("tenant counters leak: alpha=%d + bravo=%d != total=%d", aExec, bExec, total)
	}

	// Per-job trace subtrees: pairwise disjoint span sets.
	seen := make(map[string]uint64)
	for _, id := range append(append([]uint64{}, aIDs...), bIDs...) {
		var buf bytes.Buffer
		if err := svc.WriteJobTrace(&buf, id); err != nil {
			t.Fatalf("trace of job %d: %v", id, err)
		}
		var doc struct {
			TraceEvents []struct {
				Ph   string `json:"ph"`
				Name string `json:"name"`
				Args struct {
					ID string `json:"id"`
				} `json:"args"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatalf("job %d trace not valid JSON: %v", id, err)
		}
		jobRuns := 0
		for _, ev := range doc.TraceEvents {
			if ev.Ph != "X" {
				continue
			}
			if ev.Name == "job.run" {
				jobRuns++
			}
			if owner, dup := seen[ev.Args.ID]; dup {
				t.Fatalf("span %s appears in traces of jobs %d and %d (cross-job leakage)", ev.Args.ID, owner, id)
			}
			seen[ev.Args.ID] = id
		}
		if jobRuns != 1 {
			t.Errorf("job %d trace has %d job.run spans, want 1", id, jobRuns)
		}
	}
}

// TestDrain closes admission, finishes the backlog, and reports
// straggler cancellations.
func TestDrain(t *testing.T) {
	_, svc := newTestService(t, 1, Config{}, WorkloadConfig{})
	var ids []uint64
	for i := 0; i < 8; i++ {
		ids = append(ids, mustSubmit(t, svc, "t", FamilyPFor, PForParams{Levels: 3, Seed: uint64(i)}))
	}
	if err := svc.Drain(30 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if _, err := svc.Submit("t", JobSpec{Family: FamilyPFor, Params: PForParams{Levels: 1}}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: %v", err)
	}
	for _, id := range ids {
		waitState(t, svc, id, Done)
	}
	if svc.Backlog() != 0 {
		t.Errorf("backlog %d after drain", svc.Backlog())
	}
}

// TestServerClientProtocol exercises the TCP protocol end to end,
// including rejection reasons crossing the wire.
func TestServerClientProtocol(t *testing.T) {
	_, svc := newTestService(t, 2, Config{}, WorkloadConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	shutdownCalled := make(chan struct{})
	srv := Serve(svc, ln, func() { close(shutdownCalled) })
	defer srv.Close()

	cli, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	id, err := cli.Submit("acme", FamilyPFor, PForParams{Levels: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	st, err := cli.Wait(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != "done" || st.Result != fmt.Sprintf("%#x", DagValue(4, 64, 9)) {
		t.Fatalf("remote job: %+v", st)
	}

	if _, err := cli.Submit("acme", "bogus", nil); err == nil || !errors.Is(fmt.Errorf("%w", ErrUnknownFamily), ErrUnknownFamily) || err.Error() == "" {
		t.Fatalf("remote rejection lost: %v", err)
	} else if got := err.Error(); !bytes.Contains([]byte(got), []byte("unknown workload family")) {
		t.Fatalf("remote rejection reason lost: %q", got)
	}
	if _, err := cli.Status(424242); err == nil {
		t.Fatal("remote status of unknown job succeeded")
	}

	jobsList, err := cli.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobsList) != 1 {
		t.Fatalf("list returned %d jobs, want 1", len(jobsList))
	}
	tens, err := cli.Tenants()
	if err != nil {
		t.Fatal(err)
	}
	if len(tens) != 1 || tens[0].Name != "acme" || tens[0].Completed != 1 {
		t.Fatalf("tenants snapshot: %+v", tens)
	}

	if err := cli.Shutdown(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-shutdownCalled:
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown hook not invoked")
	}
}
