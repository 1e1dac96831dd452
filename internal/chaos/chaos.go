// Package chaos wraps a transport.Endpoint with seeded fault
// injection: frame drops, delays (which reorder), duplicates, and
// scheduled directed partitions. It composes over both the in-process
// and the TCP fabric, turning either into a controllably lossy
// network for testing the runtime's delivery semantics (DESIGN.md
// §6d).
//
// Faults are drawn from a per-endpoint PRNG seeded from Config.Seed
// and the endpoint's rank, in a fixed order per frame — so for a
// given sequence of sends the injected-fault sequence is a pure
// function of the seed, and a failing chaos run can be replayed
// exactly.
package chaos

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"allscale/internal/metrics"
	"allscale/internal/transport"
)

// Registry names under which the chaos layer publishes its metrics.
const (
	MetricDrops          = "chaos.drops"
	MetricDups           = "chaos.dups"
	MetricDelays         = "chaos.delays"
	MetricPartitionDrops = "chaos.partition_drops"
)

// Config sets the fault mix of one wrapped endpoint. Probabilities
// are per outbound frame, in [0,1]; the zero Config injects nothing.
type Config struct {
	// Seed feeds the PRNG (combined with the endpoint rank so each
	// rank draws an independent deterministic stream).
	Seed int64
	// Drop is the probability a frame is silently lost.
	Drop float64
	// Dup is the probability a frame is delivered twice.
	Dup float64
	// Delay is the probability a frame is held back by a random
	// duration in (0, MaxDelay] before transmission — delayed frames
	// overtake later sends, i.e. delay is also reorder.
	Delay float64
	// MaxDelay bounds the injected delay (default 2ms when Delay > 0).
	MaxDelay time.Duration
}

// Fault describes one injected fault, as reported to OnFault hooks
// and the determinism test.
type Fault struct {
	To    int
	Kind  string // frame kind
	Fault string // "drop", "dup", "delay", "partition"
	Delay time.Duration
}

// Controller schedules directed partitions shared by a set of wrapped
// endpoints: Block(from, to) makes every frame from rank `from` to
// rank `to` vanish at the sender until Heal. Both directions of a
// pair are independent, matching real asymmetric partitions.
type Controller struct {
	mu      sync.Mutex
	blocked map[[2]int]bool
}

// NewController returns a controller with no active partitions.
func NewController() *Controller {
	return &Controller{blocked: make(map[[2]int]bool)}
}

// Block starts a directed partition: frames from → to are dropped.
func (c *Controller) Block(from, to int) {
	c.mu.Lock()
	c.blocked[[2]int{from, to}] = true
	c.mu.Unlock()
}

// Heal ends the directed partition from → to.
func (c *Controller) Heal(from, to int) {
	c.mu.Lock()
	delete(c.blocked, [2]int{from, to})
	c.mu.Unlock()
}

func (c *Controller) isBlocked(from, to int) bool {
	c.mu.Lock()
	b := c.blocked[[2]int{from, to}]
	c.mu.Unlock()
	return b
}

// Endpoint is a fault-injecting transport.Endpoint wrapper.
type Endpoint struct {
	inner transport.Endpoint
	ctl   *Controller
	cfg   Config

	rngMu sync.Mutex
	rng   *rand.Rand

	onFault atomic.Pointer[func(Fault)]

	mreg      atomic.Pointer[metrics.Registry]
	drops     atomic.Pointer[metrics.Counter]
	dups      atomic.Pointer[metrics.Counter]
	delays    atomic.Pointer[metrics.Counter]
	partDrops atomic.Pointer[metrics.Counter]

	// closeMu orders Close against the delayed-frame branch of Send: a
	// frame is either counted into wg before Close starts to wait, or
	// not sent at all.
	closeMu sync.Mutex
	closed  atomic.Bool
	wg      sync.WaitGroup
}

// Wrap puts a chaos layer in front of inner. ctl may be nil when no
// partitions are scheduled; endpoints of one system share one
// controller. The per-rank PRNG stream is seed-derived so different
// ranks inject independent faults while the whole run stays
// reproducible from one seed.
func Wrap(inner transport.Endpoint, ctl *Controller, cfg Config) *Endpoint {
	if cfg.Delay > 0 && cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	return &Endpoint{
		inner: inner,
		ctl:   ctl,
		cfg:   cfg,
		rng:   rand.New(rand.NewSource(cfg.Seed ^ int64(uint64(inner.Rank()+1)*0x9e3779b97f4a7c15))),
	}
}

// OnFault installs a hook invoked synchronously for every injected
// fault (the determinism test records the sequence through it).
func (e *Endpoint) OnFault(fn func(Fault)) { e.onFault.Store(&fn) }

func (e *Endpoint) fault(f Fault) {
	if fn := e.onFault.Load(); fn != nil {
		(*fn)(f)
	}
}

func (e *Endpoint) count(c *atomic.Pointer[metrics.Counter]) {
	if ctr := c.Load(); ctr != nil {
		ctr.Inc()
	}
}

// Rank implements transport.Endpoint.
func (e *Endpoint) Rank() int { return e.inner.Rank() }

// Size implements transport.Endpoint.
func (e *Endpoint) Size() int { return e.inner.Size() }

// SetHandler implements transport.Endpoint.
func (e *Endpoint) SetHandler(h transport.Handler) { e.inner.SetHandler(h) }

// SetFailureHandler implements transport.Endpoint.
func (e *Endpoint) SetFailureHandler(h transport.FailureHandler) { e.inner.SetFailureHandler(h) }

// SetMetrics implements transport.Endpoint: the chaos layer registers
// its fault counters in the same registry the inner endpoint uses, so
// monitors see injected faults next to real traffic.
func (e *Endpoint) SetMetrics(reg *metrics.Registry) {
	e.inner.SetMetrics(reg)
	if reg == nil {
		return
	}
	e.mreg.Store(reg)
	e.drops.Store(reg.Counter(MetricDrops))
	e.dups.Store(reg.Counter(MetricDups))
	e.delays.Store(reg.Counter(MetricDelays))
	e.partDrops.Store(reg.Counter(MetricPartitionDrops))
}

// Send implements transport.Endpoint. Fault decisions are drawn in a
// fixed order (partition check, drop, dup, delay) so the sequence is
// reproducible from the seed. A dropped frame returns nil: from the
// sender's point of view a lossy link accepted it.
func (e *Endpoint) Send(to int, kind string, payload []byte) error {
	if e.ctl != nil && e.ctl.isBlocked(e.Rank(), to) {
		e.count(&e.partDrops)
		e.fault(Fault{To: to, Kind: kind, Fault: "partition"})
		return nil
	}
	var drop, dup bool
	var delay time.Duration
	if e.cfg.Drop > 0 || e.cfg.Dup > 0 || e.cfg.Delay > 0 {
		e.rngMu.Lock()
		drop = e.cfg.Drop > 0 && e.rng.Float64() < e.cfg.Drop
		dup = e.cfg.Dup > 0 && e.rng.Float64() < e.cfg.Dup
		if e.cfg.Delay > 0 && e.rng.Float64() < e.cfg.Delay {
			delay = time.Duration(1 + e.rng.Int63n(int64(e.cfg.MaxDelay)))
		}
		e.rngMu.Unlock()
	}
	if drop {
		e.count(&e.drops)
		e.fault(Fault{To: to, Kind: kind, Fault: "drop"})
		return nil
	}
	if delay > 0 {
		e.count(&e.delays)
		e.fault(Fault{To: to, Kind: kind, Fault: "delay", Delay: delay})
		if dup {
			e.count(&e.dups)
			e.fault(Fault{To: to, Kind: kind, Fault: "dup"})
		}
		// The frame leaves later — subsequent sends overtake it. The
		// payload is copied: the caller's buffer may be pooled.
		held := append([]byte(nil), payload...)
		e.closeMu.Lock()
		if e.closed.Load() {
			e.closeMu.Unlock()
			return nil
		}
		e.wg.Add(1)
		e.closeMu.Unlock()
		time.AfterFunc(delay, func() {
			defer e.wg.Done()
			if e.closed.Load() {
				return
			}
			e.inner.Send(to, kind, held)
			if dup {
				e.inner.Send(to, kind, held)
			}
		})
		return nil
	}
	err := e.inner.Send(to, kind, payload)
	if err == nil && dup {
		e.count(&e.dups)
		e.fault(Fault{To: to, Kind: kind, Fault: "dup"})
		e.inner.Send(to, kind, payload)
	}
	return err
}

// Close implements transport.Endpoint: it waits out in-flight delayed
// frames, then closes the inner endpoint. A frame Send would delay from
// now on is dropped — the link is going away.
func (e *Endpoint) Close() error {
	e.closeMu.Lock()
	again := e.closed.Swap(true)
	e.closeMu.Unlock()
	if again {
		return nil
	}
	e.wg.Wait()
	return e.inner.Close()
}
