package jobs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"allscale/internal/core"
	"allscale/internal/transport"
)

// TestServiceSoak1kJobs is the CI service job: allscaled's service
// layer on a real 4-locality TCP fabric, 1000 jobs submitted over 8
// concurrent client connections (one per tenant). Requirements: zero
// failed jobs, a bounded (generous) per-tenant p99 completion
// latency, and a Chrome trace artifact per sampled job written to
// $SERVICE_TRACE_OUT (or the test temp dir).
func TestServiceSoak1kJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("soak skipped in -short")
	}
	const (
		n          = 4
		numTenants = 8
		numJobs    = 1000
	)

	eps, err := transport.NewTCPLoopback(n, transport.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sys := core.NewSystem(core.Config{
		Endpoints:     eps,
		Workers:       2,
		TraceCapacity: 1 << 16,
	})
	w := RegisterWorkloads(sys, WorkloadConfig{})
	sys.Start()
	defer sys.Close()

	svc := New(sys, w, Config{MaxActive: 16, MaxBacklog: 2 * numJobs})
	defer svc.Close()
	names := make([]string, numTenants)
	for i := range names {
		names[i] = fmt.Sprintf("soak-%c", 'a'+i)
		if err := svc.RegisterTenant(names[i], Quota{Weight: 1, MaxActive: 4, MaxPending: numJobs}); err != nil {
			t.Fatal(err)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(svc, ln, nil)
	defer srv.Close()

	// Eight clients, each its own TCP connection, submitting its
	// tenant's share up front and then waiting on every job.
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var failures []string
	lastJob := make([]uint64, numTenants)
	for ti := range names {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			cli, err := Dial(srv.Addr().String())
			if err != nil {
				mu.Lock()
				failures = append(failures, fmt.Sprintf("%s: dial: %v", names[ti], err))
				mu.Unlock()
				return
			}
			defer cli.Close()
			share := numJobs / numTenants
			if ti < numJobs%numTenants {
				share++
			}
			ids := make([]uint64, 0, share)
			for k := 0; k < share; k++ {
				family, params := soakJob(ti, k)
				id, err := cli.Submit(names[ti], family, params)
				if err != nil {
					mu.Lock()
					failures = append(failures, fmt.Sprintf("%s: submit %d: %v", names[ti], k, err))
					mu.Unlock()
					return
				}
				ids = append(ids, id)
			}
			for _, id := range ids {
				st, err := cli.Wait(id)
				if err != nil {
					mu.Lock()
					failures = append(failures, fmt.Sprintf("%s: wait %d: %v", names[ti], id, err))
					mu.Unlock()
					return
				}
				if st.State != Done.String() {
					mu.Lock()
					failures = append(failures, fmt.Sprintf("%s: job %d ended %s: %s", names[ti], id, st.State, st.Error))
					mu.Unlock()
					return
				}
			}
			mu.Lock()
			lastJob[ti] = ids[len(ids)-1]
			mu.Unlock()
		}(ti)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, f := range failures {
		t.Error(f)
	}
	if t.Failed() {
		t.Fatalf("soak failed after %s", elapsed)
	}
	t.Logf("%d jobs from %d tenants in %s (%.0f jobs/s)",
		numJobs, numTenants, elapsed, float64(numJobs)/elapsed.Seconds())

	// Bounded p99 completion latency per tenant. The bound is
	// deliberately generous — it catches starvation and hangs, not
	// scheduling jitter on loaded CI machines.
	const p99BoundMicros = 60e6
	for _, ts := range svc.Tenants() {
		if ts.Failed != 0 {
			t.Errorf("tenant %s: %d failed jobs", ts.Name, ts.Failed)
		}
		if ts.DurationP99 <= 0 || ts.DurationP99 > p99BoundMicros {
			t.Errorf("tenant %s: p99 completion %0.fµs outside (0, %0.fµs]",
				ts.Name, ts.DurationP99, p99BoundMicros)
		}
		t.Logf("tenant %s: admitted=%d completed=%d tasks=%d p99(admit→exec)=%.0fµs p99(duration)=%.0fµs",
			ts.Name, ts.Admitted, ts.Completed, ts.TasksExecuted, ts.AdmitToExecP99, ts.DurationP99)
	}

	// Per-job Chrome trace artifacts: one sampled job per tenant (the
	// tenant's last-completed job, still resident in the trace rings).
	dir := os.Getenv("SERVICE_TRACE_OUT")
	if dir == "" {
		dir = t.TempDir()
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for ti, id := range lastJob {
		var buf bytes.Buffer
		if err := svc.WriteJobTrace(&buf, id); err != nil {
			t.Fatalf("trace for job %d: %v", id, err)
		}
		var parsed struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
			t.Fatalf("job %d trace is not valid Chrome JSON: %v", id, err)
		}
		if len(parsed.TraceEvents) == 0 {
			t.Errorf("job %d trace has no events", id)
		}
		path := filepath.Join(dir, fmt.Sprintf("%s-job-%d.trace.json", names[ti], id))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("wrote %d per-job trace artifacts to %s", numTenants, dir)

	if err := svc.Drain(60 * time.Second); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// soakJob cycles the workload families with soak-sized parameters:
// small enough that 1k jobs finish quickly under -race, real enough
// that every family's task graph crosses the fabric.
func soakJob(ti, k int) (string, any) {
	switch k % 5 {
	case 0, 1, 2:
		return FamilyPFor, PForParams{Levels: 4, Spin: 16, Seed: uint64(ti*10000 + k)}
	case 3:
		return FamilyStencil, StencilParams{N: 32, Steps: 2}
	default:
		return FamilyTPC, TPCParams{NumPoints: 256, Height: 5, Radius: 0.25, NumQueries: 8, Seed: int64(ti*31 + k)}
	}
}
