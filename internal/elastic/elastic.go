// Package elastic implements the scaling controller of the elastic
// membership subsystem (DESIGN.md §6g): a small feedback loop that
// watches each locality's scheduler load and drives
// recovery.Join / recovery.Drain automatically — localities as a
// dynamically managed resource in the ParalleX/HPX tradition, shaped
// like the autoscaler pattern of actions-runner-controller (scale up
// on backlog, scale down on sustained idleness, bounded by a min/max
// member count and a cooldown).
//
// The decision function is pure and separately testable; the
// controller merely reads the loads, decides and actuates.
package elastic

import (
	"sync"
	"time"

	"allscale/internal/core"
	"allscale/internal/runtime"
)

// Actuator drives membership changes; *recovery.Coordinator
// implements it.
type Actuator interface {
	Join(rank int) error
	Drain(rank int) error
}

// Action is a scaling decision.
type Action int

const (
	// None keeps the membership as it is.
	None Action = iota
	// Join admits the decision's rank into the membership.
	Join
	// Drain gracefully retires the decision's rank.
	Drain
)

// Decision is the outcome of one control round.
type Decision struct {
	Action Action
	Rank   int
}

// Options tunes the controller.
type Options struct {
	// MinMembers floors the membership; drains stop there. Default 1.
	MinMembers int
	// MaxMembers caps the membership; joins stop there. Default: the
	// system size.
	MaxMembers int
	// HighLoad is the mean queued+running tasks per member above which
	// a latent rank is joined. Default 8.
	HighLoad float64
	// LowLoad is the mean load per member below which the least-loaded
	// member is drained. Default 0 — meaning scale-down only happens
	// when the system is completely idle unless configured otherwise.
	LowLoad float64
	// Interval is the control period. Default 500ms.
	Interval time.Duration
	// Cooldown is the minimum gap between two membership changes, so
	// one warm-up's transient load cannot trigger the next decision.
	// Default 4× Interval.
	Cooldown time.Duration
	// Backlog, when non-nil, supplies the job service's admitted
	// backlog (admitted jobs not yet completed, jobs.Service.Backlog):
	// the controller then scales on tenant demand rather than raw
	// queue depth, spreading the backlog evenly over the member loads
	// before deciding. A burst of admitted jobs thus triggers scale-up
	// before the dispatcher has started them, and members stay up until
	// the service actually drains.
	Backlog func() int64
}

func (o *Options) normalize(size int) {
	if o.MinMembers <= 0 {
		o.MinMembers = 1
	}
	if o.MaxMembers <= 0 || o.MaxMembers > size {
		o.MaxMembers = size
	}
	if o.HighLoad <= 0 {
		o.HighLoad = 8
	}
	if o.Interval <= 0 {
		o.Interval = 500 * time.Millisecond
	}
	if o.Cooldown <= 0 {
		o.Cooldown = 4 * o.Interval
	}
}

// Decide is the pure scaling rule: loads[r] is the queued+running
// task count of rank r, member[r]/latent[r] its membership state
// (latent = usable spare capacity, i.e. not dead and not departed).
// Scale-up picks the lowest latent rank; scale-down picks the
// least-loaded, highest-numbered member — never rank 0, which anchors
// the system's metrics and recovery services.
func Decide(loads []int64, member, latent []bool, opts Options) Decision {
	opts.normalize(len(loads))
	var members []int
	var total int64
	for r := range loads {
		if r < len(member) && member[r] {
			members = append(members, r)
			total += loads[r]
		}
	}
	if len(members) == 0 {
		return Decision{Action: None}
	}
	mean := float64(total) / float64(len(members))

	if mean > opts.HighLoad && len(members) < opts.MaxMembers {
		for r := range latent {
			if latent[r] && !(r < len(member) && member[r]) {
				return Decision{Action: Join, Rank: r}
			}
		}
	}
	if mean <= opts.LowLoad && len(members) > opts.MinMembers {
		victim, best := -1, int64(-1)
		for _, r := range members {
			if r == 0 {
				continue
			}
			if victim < 0 || loads[r] < best || (loads[r] == best && r > victim) {
				victim, best = r, loads[r]
			}
		}
		if victim > 0 {
			return Decision{Action: Drain, Rank: victim}
		}
	}
	return Decision{Action: None}
}

// Controller periodically reads the system's loads and actuates
// Decide's verdicts.
type Controller struct {
	sys  *core.System
	act  Actuator
	opts Options

	mu   sync.Mutex
	last time.Time // time of the last actuated change

	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// Start begins the control loop.
func Start(sys *core.System, act Actuator, opts Options) *Controller {
	opts.normalize(sys.Size())
	c := &Controller{
		sys: sys, act: act, opts: opts,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go c.loop()
	return c
}

// Stop ends the control loop; idempotent.
func (c *Controller) Stop() {
	c.once.Do(func() { close(c.stop) })
	<-c.done
}

func (c *Controller) loop() {
	defer close(c.done)
	ticker := time.NewTicker(c.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		c.Tick()
	}
}

// Tick runs one control round immediately (the loop's body; exported
// for deterministic tests). It returns the decision it actuated, or
// Action None.
func (c *Controller) Tick() Decision {
	c.mu.Lock()
	inCooldown := !c.last.IsZero() && time.Since(c.last) < c.opts.Cooldown
	c.mu.Unlock()
	if inCooldown {
		return Decision{Action: None}
	}
	size := c.sys.Size()
	loads := make([]int64, size)
	member := make([]bool, size)
	latent := make([]bool, size)
	var members int64
	for r := 0; r < size; r++ {
		loads[r] = c.sys.Scheduler(r).Load()
		st := c.sys.Peer(r)
		member[r], latent[r] = st.Live(), st == runtime.Latent
		if member[r] {
			members++
		}
	}
	if c.opts.Backlog != nil {
		// Service mode: the load signal is the admitted backlog, not
		// raw queue depth. Spread it evenly over the members so
		// Decide's per-member mean compares against HighLoad/LowLoad
		// unchanged.
		if members > 0 {
			backlog := c.opts.Backlog()
			share := backlog / members
			rem := backlog % members
			for r := 0; r < size; r++ {
				if member[r] {
					loads[r] = share
					if rem > 0 {
						loads[r]++
						rem--
					}
				} else {
					loads[r] = 0
				}
			}
		}
	}
	d := Decide(loads, member, latent, c.opts)
	switch d.Action {
	case Join:
		if err := c.act.Join(d.Rank); err != nil {
			return Decision{Action: None}
		}
	case Drain:
		if err := c.act.Drain(d.Rank); err != nil {
			return Decision{Action: None}
		}
	default:
		return d
	}
	c.mu.Lock()
	c.last = time.Now()
	c.mu.Unlock()
	return d
}
