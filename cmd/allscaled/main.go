// Command allscaled is the long-running multi-tenant job daemon over
// the AllScale runtime reproduction (DESIGN.md §6h): it boots one
// simulated cluster — in-process or over real TCP loopback endpoints
// — registers the workload families (stencil, tpc, ipic3d, pfor
// DAGs), and serves the jobs protocol on a TCP socket: submit /
// status / wait / cancel / list / tenants / shutdown as
// newline-delimited JSON.
//
// Run a 4-locality daemon and submit a job:
//
//	go run ./cmd/allscaled -listen 127.0.0.1:7477 &
//	printf '%s\n' '{"op":"submit","tenant":"acme","family":"stencil","params":{"n":64,"steps":8}}' \
//	  | nc 127.0.0.1 7477
//
// SIGINT/SIGTERM (or the shutdown op) drains gracefully: admission
// closes, running jobs finish (bounded by -drain), stragglers are
// cancelled, per-job Chrome traces land in -trace-dir.
//
// With -state-dir the control plane is durable (DESIGN.md §6i): every
// admission and state transition is journaled there (fsync policy via
// -fsync), so the daemon can be SIGKILLed mid-run and restarted
// against the same directory — finished jobs come back as history,
// unfinished jobs re-run under their original IDs, and clients
// retrying a submit get the original job back (exactly-once submit
// tokens). A graceful shutdown of a durable daemon suspends instead of
// draining: running jobs get the -drain grace, stragglers are
// preserved for re-execution, and the journal is compacted to the
// registry it left.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"allscale/internal/core"
	"allscale/internal/elastic"
	"allscale/internal/jobs"
	"allscale/internal/recovery"
	"allscale/internal/trace"
	"allscale/internal/transport"
)

func main() {
	var (
		listen     = flag.String("listen", "127.0.0.1:7477", "job service listen address")
		localities = flag.Int("localities", 4, "simulated cluster size")
		workers    = flag.Int("workers", 4, "worker pool size per locality")
		fabric     = flag.String("fabric", "inproc", "inter-locality fabric: inproc or tcp")
		maxActive  = flag.Int("max-active", 16, "concurrently running jobs, all tenants")
		backlog    = flag.Int("backlog", 256, "service-wide pending-job cap")
		tenants    = flag.String("tenants", "", "pre-registered tenants as name:weight[:maxactive],...")
		traceCap   = flag.Int("trace-capacity", trace.DefaultCapacity, "per-rank finished-span ring (0 disables tracing)")
		traceDir   = flag.String("trace-dir", "", "write per-job Chrome traces here at shutdown")
		traceJobs  = flag.Int("trace-jobs", 16, "max per-job traces written at shutdown")
		elasticOn  = flag.Bool("elastic", false, "scale membership on the admitted backlog")
		minMembers = flag.Int("min-members", 1, "elastic: membership floor")
		drainT     = flag.Duration("drain", 30*time.Second, "graceful drain timeout")
		stateDir   = flag.String("state-dir", "", "durable control plane: directory of the registry journal, one journal.<g>.wal (empty = in-memory)")
		fsyncMode  = flag.String("fsync", "every", "journal fsync policy: every, interval or off")
		fsyncIvl   = flag.Duration("fsync-interval", 25*time.Millisecond, "journal sync period for -fsync=interval")
	)
	flag.Parse()

	fsync, err := jobs.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		log.Fatalf("allscaled: -fsync: %v", err)
	}

	cfg := core.Config{
		Localities:    *localities,
		Workers:       *workers,
		TraceCapacity: *traceCap,
	}
	if *fabric == "tcp" {
		eps, err := transport.NewTCPLoopback(*localities, transport.TCPConfig{})
		if err != nil {
			log.Fatalf("allscaled: tcp fabric: %v", err)
		}
		cfg.Endpoints = eps
	} else if *fabric != "inproc" {
		log.Fatalf("allscaled: unknown fabric %q (want inproc or tcp)", *fabric)
	}

	sys := core.NewSystem(cfg)
	w := jobs.RegisterWorkloads(sys, jobs.WorkloadConfig{})
	sys.Start()
	defer sys.Close()

	coord := recovery.Attach(sys, recovery.Options{})
	defer coord.Stop()

	svc, err := jobs.Open(sys, w, jobs.Config{
		MaxActive:     *maxActive,
		MaxBacklog:    *backlog,
		StateDir:      *stateDir,
		Fsync:         fsync,
		FsyncInterval: *fsyncIvl,
	})
	if err != nil {
		log.Fatalf("allscaled: open service: %v", err)
	}
	if *stateDir != "" {
		rec := svc.Recovery()
		log.Printf("allscaled: recovered state from %s: %d tenants, %d finished jobs, %d re-admitted, %d journal records replayed (torn tail: %v)",
			*stateDir, rec.Tenants, rec.Terminal, rec.Readmitted, rec.Replayed, rec.TornTail)
	}
	if err := registerTenants(svc, *tenants); err != nil {
		log.Fatalf("allscaled: -tenants: %v", err)
	}

	if *elasticOn {
		ctl := elastic.Start(sys, coord, elastic.Options{
			MinMembers: *minMembers,
			Backlog:    svc.Backlog,
		})
		defer ctl.Stop()
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("allscaled: listen: %v", err)
	}
	shutdown := make(chan os.Signal, 1)
	signal.Notify(shutdown, syscall.SIGINT, syscall.SIGTERM)
	srv := jobs.Serve(svc, ln, func() { shutdown <- syscall.SIGTERM })
	log.Printf("allscaled: serving on %s (%d localities, %s fabric, %d workers each)",
		srv.Addr(), sys.Size(), *fabric, *workers)

	<-shutdown
	if *stateDir != "" {
		// Durable daemons stop restart-style: jobs that outlive the
		// grace window are preserved in the journal and re-run by the
		// next incarnation instead of being cancelled.
		log.Printf("allscaled: suspending (grace %s, state preserved in %s)...", *drainT, *stateDir)
		if err := svc.Suspend(*drainT); err != nil {
			log.Printf("allscaled: %v", err)
		}
	} else {
		log.Printf("allscaled: draining (timeout %s)...", *drainT)
		if err := svc.Drain(*drainT); err != nil {
			log.Printf("allscaled: %v", err)
		}
	}
	if *traceDir != "" {
		writeTraces(svc, *traceDir, *traceJobs)
	}
	srv.Close()
	for _, ts := range svc.Tenants() {
		log.Printf("allscaled: tenant %-12s done=%d failed=%d cancelled=%d rejected=%d tasks=%d p99(admit→exec)=%.0fµs",
			ts.Name, ts.Completed, ts.Failed, ts.Cancelled, ts.Rejected, ts.TasksExecuted, ts.AdmitToExecP99)
	}
	log.Printf("allscaled: bye")
}

// registerTenants parses "name:weight[:maxactive],..." pre-registrations.
func registerTenants(svc *jobs.Service, spec string) error {
	if spec == "" {
		return nil
	}
	for _, item := range strings.Split(spec, ",") {
		parts := strings.Split(item, ":")
		if parts[0] == "" {
			return fmt.Errorf("empty tenant name in %q", item)
		}
		var q jobs.Quota
		if len(parts) > 1 {
			wt, err := strconv.Atoi(parts[1])
			if err != nil {
				return fmt.Errorf("weight in %q: %v", item, err)
			}
			q.Weight = wt
		}
		if len(parts) > 2 {
			ma, err := strconv.Atoi(parts[2])
			if err != nil {
				return fmt.Errorf("maxactive in %q: %v", item, err)
			}
			q.MaxActive = ma
		}
		if err := svc.RegisterTenant(parts[0], q); err != nil {
			return err
		}
	}
	return nil
}

// writeTraces exports up to max per-job Chrome traces.
func writeTraces(svc *jobs.Service, dir string, max int) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		log.Printf("allscaled: trace dir: %v", err)
		return
	}
	n := 0
	for _, js := range svc.List() {
		if n >= max {
			break
		}
		path := filepath.Join(dir, fmt.Sprintf("job-%d-%s.trace.json", js.ID, js.State))
		f, err := os.Create(path)
		if err != nil {
			log.Printf("allscaled: %v", err)
			continue
		}
		if err := svc.WriteJobTrace(f, js.ID); err != nil {
			f.Close()
			os.Remove(path)
			continue
		}
		f.Close()
		n++
	}
	log.Printf("allscaled: wrote %d job traces to %s", n, dir)
}
