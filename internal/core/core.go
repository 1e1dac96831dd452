// Package core is the public programming interface of the AllScale
// runtime reproduction — the layer the AllScale API and compiler
// would emit code against (Sections 3.3–3.4). It bundles a simulated
// cluster (one locality per node), per-locality data item managers
// and schedulers, and offers the high-level primitives of the paper's
// example applications: managed data structures (Grid, Tree), the
// pfor parallel loop, and recursively splittable tasks.
package core

import (
	"fmt"
	"io"
	goruntime "runtime"
	"slices"
	"sync"
	"time"

	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/metrics"
	"allscale/internal/runtime"
	"allscale/internal/sched"
	"allscale/internal/trace"
	"allscale/internal/transport"
)

// Config parameterizes a System.
type Config struct {
	// Localities is the number of simulated cluster nodes (address
	// spaces). Default 1.
	Localities int
	// Policy is the scheduling policy; default is the hierarchical
	// data-spreading DefaultPolicy.
	Policy sched.Policy
	// Workers is the size of every locality's worker pool: the
	// goroutines that run every task, split or process variant, off the
	// locality's work-stealing run queue (Section 3.2: enqueued tasks
	// "may be stolen by other nodes"). Zero or negative selects
	// runtime.GOMAXPROCS(0).
	Workers int
	// TraceCapacity, when positive, enables task-lifecycle tracing
	// with a per-rank ring of that many finished spans (use
	// trace.DefaultCapacity for a sensible size); zero disables
	// tracing entirely.
	TraceCapacity int
	// Endpoints, when non-nil, builds the system over caller-provided
	// transport endpoints (typically TCP) instead of the in-process
	// fabric; Localities is then ignored in favor of len(Endpoints).
	Endpoints []transport.Endpoint
	// Recovery parameterizes the crash-recovery service attached via
	// SetRecovery (see the recovery package); zero values select the
	// service's defaults.
	Recovery RecoveryConfig
	// Calls, when non-nil, replaces every locality's RPC call profile,
	// the deadlines of each plane (see runtime.CallProfile). Nil keeps
	// runtime.DefaultCallProfile.
	Calls *runtime.CallProfile
	// Latent lists ranks provisioned on the fabric but kept outside
	// the initial membership: they accept control traffic (item
	// catalogs stay in sync) but receive no placements and host no
	// index nodes until recovery.Join admits them — the spare capacity
	// of elastic membership (DESIGN.md §6g).
	Latent []int
}

// RecoveryConfig tunes failure detection (recovery.Attach reads it).
type RecoveryConfig struct {
	// Heartbeat is the probe interval of the per-rank detectors.
	// Default 250ms.
	Heartbeat time.Duration
	// Timeout is the silence span after which a peer is suspected and
	// actively confirmed. Default 4× Heartbeat.
	Timeout time.Duration
}

// RecoveryService is the contract between the system and the recovery
// coordinator (implemented by the recovery package; an interface here
// to avoid the dependency cycle core → recovery → core).
type RecoveryService interface {
	// ReportDeath marks a rank dead and recovers its workload.
	ReportDeath(rank int)
	// DeadRanks returns the ranks declared dead so far, in rank order.
	DeadRanks() []int
	// Stop terminates failure detection.
	Stop()
}

// System is a running AllScale runtime instance hosting all
// localities of a simulated cluster in one process.
type System struct {
	rsys     *runtime.System
	regs     []*dataitem.Registry
	mgrs     []*dim.Manager
	scheds   []*sched.Scheduler
	tracers  []*trace.Tracer
	recCfg   RecoveryConfig
	recovery RecoveryService
	started  bool
	mu       sync.Mutex
}

// NewSystem creates a system. Data item types and task kinds must be
// registered before Start.
func NewSystem(cfg Config) *System {
	n := cfg.Localities
	if n <= 0 {
		n = 1
	}
	policy := cfg.Policy
	if policy == nil {
		policy = &sched.DefaultPolicy{}
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = goruntime.GOMAXPROCS(0)
	}
	var rsys *runtime.System
	if len(cfg.Endpoints) > 0 {
		n = len(cfg.Endpoints)
		rsys = runtime.NewSystemOver(cfg.Endpoints)
	} else {
		rsys = runtime.NewSystem(n)
	}
	s := &System{rsys: rsys, recCfg: cfg.Recovery}
	for i := 0; i < n; i++ {
		if cfg.Calls != nil {
			s.rsys.Locality(i).SetCallProfile(*cfg.Calls)
		}
		if cfg.TraceCapacity > 0 {
			tr := trace.New(i, cfg.TraceCapacity)
			s.tracers = append(s.tracers, tr)
			s.rsys.Locality(i).SetTracer(tr)
		}
		reg := dataitem.NewRegistry()
		mgr := dim.New(s.rsys.Locality(i), reg)
		s.regs = append(s.regs, reg)
		s.mgrs = append(s.mgrs, mgr)
		s.scheds = append(s.scheds, sched.New(s.rsys.Locality(i), mgr, policy, workers))
	}
	// Latent ranks start outside the membership — on every locality's
	// view, their own included — until a join admits them.
	for _, latent := range cfg.Latent {
		if latent < 0 || latent >= n {
			panic(fmt.Sprintf("core: latent rank %d out of range [0,%d)", latent, n))
		}
		for i := 0; i < n; i++ {
			s.rsys.Locality(i).SetPeer(latent, runtime.Latent, 0)
		}
	}
	return s
}

// Size returns the number of localities.
func (s *System) Size() int { return len(s.mgrs) }

// Manager returns the data item manager of the given locality.
func (s *System) Manager(rank int) *dim.Manager { return s.mgrs[rank] }

// Items returns, in ID order, the items any rank has met (dim's catalog).
func (s *System) Items() []dim.ItemID {
	var out []dim.ItemID
	for _, m := range s.mgrs {
		out = append(out, m.Items()...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// Scheduler returns the scheduler of the given locality.
func (s *System) Scheduler(rank int) *sched.Scheduler { return s.scheds[rank] }

// Locality returns the runtime locality of the given rank.
func (s *System) Locality(rank int) *runtime.Locality { return s.rsys.Locality(rank) }

// Peer returns rank's PeerState as a survivor sees it: in the view of
// the lowest open locality other than rank. A crashed or partitioned
// rank never learns its own death, so its own view is never read.
func (s *System) Peer(rank int) runtime.PeerState {
	for r := 0; r < s.Size(); r++ {
		if l := s.rsys.Locality(r); r != rank && !l.Closed() {
			return l.Peer(rank)
		}
	}
	return s.rsys.Locality(rank).Peer(rank)
}

// Metrics returns the metrics registry of the given locality — the
// single source of truth for its transport, RPC, scheduler and data
// item manager counters.
func (s *System) Metrics(rank int) *metrics.Registry { return s.rsys.Locality(rank).Metrics() }

// Tracer returns the tracer of the given locality (nil when the
// system was created without TraceCapacity).
func (s *System) Tracer(rank int) *trace.Tracer {
	if len(s.tracers) == 0 {
		return nil
	}
	return s.tracers[rank]
}

// Tracers returns all per-rank tracers (nil when tracing is off).
func (s *System) Tracers() []*trace.Tracer { return s.tracers }

// WriteChromeTrace exports all ranks' spans as one Chrome trace_event
// JSON document, loadable in about:tracing or ui.perfetto.dev. It
// errors when the system was created without tracing.
func (s *System) WriteChromeTrace(w io.Writer) error {
	if len(s.tracers) == 0 {
		return fmt.Errorf("core: system has no tracers (set Config.TraceCapacity)")
	}
	return trace.WriteChrome(w, s.tracers...)
}

// RegisterType registers a data item type on every locality; must be
// called before Start.
func (s *System) RegisterType(typ dataitem.Type) {
	for _, reg := range s.regs {
		reg.MustRegister(typ)
	}
}

// RegisterKind registers a task kind on every locality; mk is invoked
// once per rank, mirroring how the AllScale compiler emits identical
// task tables into every process. Must be called before Start.
func (s *System) RegisterKind(mk func(rank int) *sched.Kind) {
	for i, sc := range s.scheds {
		sc.Register(mk(i))
	}
}

// Start begins message delivery; registrations are frozen.
func (s *System) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		s.rsys.Start()
		s.started = true
	}
}

// RecoveryConfig returns the recovery parameters of the system.
func (s *System) RecoveryConfig() RecoveryConfig { return s.recCfg }

// SetRecovery attaches the crash-recovery service (called by the
// recovery package's Attach).
func (s *System) SetRecovery(r RecoveryService) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.recovery = r
}

// Recovery returns the attached recovery service (nil without one).
func (s *System) Recovery() RecoveryService {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// Kill simulates the crash of one locality: its worker pool is told to
// stop (without waiting — workers may be mid-task) and its locality
// closes, severing it from the fabric. Peers observe the silence via
// the failure detector; the killed rank's goroutines unwind as their
// promises fail.
func (s *System) Kill(rank int) {
	s.scheds[rank].AbortQueue()
	s.rsys.Locality(rank).Close()
}

// Close shuts the system down, stopping recovery first (so the
// detector does not declare closing localities dead), then the worker
// pools.
func (s *System) Close() error {
	if r := s.Recovery(); r != nil {
		r.Stop()
	}
	for _, sc := range s.scheds {
		sc.StopQueue()
	}
	return s.rsys.Close()
}

// Spawn schedules a root task from locality 0 and returns its future.
func (s *System) Spawn(kind string, args any) (*runtime.Future, error) {
	return s.scheds[0].Spawn(kind, args)
}

// Wait runs a root task to completion, decoding its result into out
// (pass nil to discard).
func (s *System) Wait(kind string, args any, out any) error {
	fut, err := s.Spawn(kind, args)
	if err != nil {
		return err
	}
	if out == nil {
		_, err := fut.Wait()
		return err
	}
	return fut.WaitInto(out)
}

// CounterSum returns the sum of the named counter (a Metric* name of
// the package that publishes it) over every locality's registry.
func (s *System) CounterSum(name string) uint64 {
	var n uint64
	for i := range s.mgrs {
		n += s.Metrics(i).CounterValue(name)
	}
	return n
}

// CoverageByRank returns each locality's fragment coverage of an item
// (for monitoring and tests).
func (s *System) CoverageByRank(item dim.ItemID) ([]dataitem.Region, error) {
	out := make([]dataitem.Region, s.Size())
	for i, m := range s.mgrs {
		cov, err := m.Coverage(item)
		if err != nil {
			return nil, fmt.Errorf("rank %d: %w", i, err)
		}
		out[i] = cov
	}
	return out, nil
}
