// Services example: the runtime as a shared, long-running service
// (DESIGN.md §6h). The paper's introduction motivates system-level
// services — monitoring, load balancing, resilience — on top of the
// managed data distribution; this example exercises the layer that
// multiplexes the whole substrate across tenants: an in-process
// allscaled (job service + TCP protocol server) receiving 100
// concurrent jobs from 8 tenants over the client API, with admission
// control, weighted fair-share dispatch, and per-tenant
// observability.
//
// Run with:
//
//	go run ./examples/services
package main

import (
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"allscale/internal/core"
	"allscale/internal/jobs"
	"allscale/internal/trace"
)

const (
	localities = 4
	workers    = 2
	numTenants = 8
	numJobs    = 100
)

func main() {
	// Boot the cluster and the job service.
	sys := core.NewSystem(core.Config{
		Localities:    localities,
		Workers:       workers,
		TraceCapacity: trace.DefaultCapacity,
	})
	w := jobs.RegisterWorkloads(sys, jobs.WorkloadConfig{})
	sys.Start()
	defer sys.Close()

	svc := jobs.New(sys, w, jobs.Config{MaxActive: 12, MaxBacklog: 256})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := jobs.Serve(svc, ln, nil)
	defer srv.Close()
	fmt.Printf("allscaled serving on %s (%d localities, %d workers each)\n\n",
		srv.Addr(), localities, workers)

	// Eight tenants; two premium ones get 3× the fair-share weight.
	names := make([]string, numTenants)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%c", 'a'+i)
		q := jobs.Quota{Weight: 1, MaxActive: 3}
		if i < 2 {
			q.Weight = 3
		}
		if err := svc.RegisterTenant(names[i], q); err != nil {
			log.Fatal(err)
		}
	}

	// 100 jobs from 8 tenants, each tenant over its own client
	// connection, all in flight at once: DAG trees, stencils, TPC and
	// iPiC3D kernels round-robin per tenant.
	start := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	done := map[string]int{}
	for ti, name := range names {
		wg.Add(1)
		go func(ti int, name string) {
			defer wg.Done()
			cli, err := jobs.Dial(srv.Addr().String())
			if err != nil {
				log.Fatal(err)
			}
			defer cli.Close()
			share := numJobs / numTenants
			if ti < numJobs%numTenants {
				share++
			}
			ids := make([]uint64, 0, share)
			for k := 0; k < share; k++ {
				family, params := pickJob(ti, k)
				id, err := cli.Submit(name, family, params)
				if err != nil {
					log.Fatalf("%s: submit: %v", name, err)
				}
				ids = append(ids, id)
			}
			for _, id := range ids {
				st, err := cli.Wait(id)
				if err != nil {
					log.Fatalf("%s: wait %d: %v", name, id, err)
				}
				if st.State != "done" {
					log.Fatalf("%s: job %d ended %s: %s", name, id, st.State, st.Error)
				}
			}
			mu.Lock()
			done[name] = len(ids)
			mu.Unlock()
		}(ti, name)
	}
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Printf("%d jobs from %d tenants completed in %s\n\n", numJobs, numTenants, elapsed)
	fmt.Printf("%-10s %6s %9s %9s %9s %16s %14s\n",
		"tenant", "weight", "admitted", "completed", "tasks", "p99 admit→exec", "p99 duration")
	for _, ts := range svc.Tenants() {
		fmt.Printf("%-10s %6d %9d %9d %9d %14.0fµs %12.0fµs\n",
			ts.Name, ts.Weight, ts.Admitted, ts.Completed,
			ts.TasksExecuted, ts.AdmitToExecP99, ts.DurationP99)
	}

	if err := svc.Drain(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nservice drained cleanly")
}

// pickJob cycles each tenant through the workload families with
// small, demo-sized parameters.
func pickJob(ti, k int) (string, any) {
	switch k % 4 {
	case 0:
		return jobs.FamilyPFor, jobs.PForParams{Levels: 6, Spin: 32, Seed: uint64(ti*1000 + k)}
	case 1:
		return jobs.FamilyStencil, jobs.StencilParams{N: 32, Steps: 4}
	case 2:
		return jobs.FamilyTPC, jobs.TPCParams{
			NumPoints: 512, Height: 6, Radius: 0.2, NumQueries: 16, Seed: int64(ti + k),
		}
	default:
		return jobs.FamilyIPiC3D, jobs.IPiC3DParams{N: 4, Steps: 2, PartsPerCell: 2, Seed: int64(ti)}
	}
}
