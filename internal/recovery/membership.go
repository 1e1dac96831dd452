// Elastic membership (DESIGN.md §6g): the graceful twin of crash
// recovery. The fabric is provisioned at full capacity; ranks marked
// latent at construction (core.Config.Latent) idle outside the
// membership until Join admits them, and Drain retires a member after
// migrating every task and fragment it holds — the dynamic locality
// set of the ParalleX/HPX lineage on top of the fixed-size transport.
//
// Join is a three-step handshake. First the joiner is fenced into the
// current incarnation epoch over a membership.update RPC — the reply
// is stamped with the adopted epoch, proving the fence took before
// anything else observes the rank. Then every locality admits the
// joiner (installing the same epoch as the joiner's inbound fence, so
// stale pre-join frames are rejected) and the Fig. 5 index tree is
// re-shaped over the grown membership: the liveHost insertion dual of
// the crash-time hole routing, realized as the same retract →
// republish → re-derive-claims sequence recovery already uses. Last,
// the joiner warms up by pulling a fair share of every grid item
// through the balancer; the locate-cache revocations issued by the
// migrating fetches keep the old owners' caches coherent.
//
// Drain reverses the sequence: placement toward the rank pauses (every
// view, the rank's own included, moves it to Draining, so no scheduler
// places on it and it keeps no work itself), the queued backlog is
// re-assigned over the remaining members, the rank quiesces, migrates
// its fragments out via ordinary write acquisitions, and only then —
// state fully evacuated — moves to Departed under a fresh fence epoch,
// the drained rank's own view first so its goodbye ack is not fenced.
// The failure detector never fires: a departed rank is not probed, and
// its own detector retires.
package recovery

import (
	"fmt"
	"sync/atomic"
	"time"

	"allscale/internal/balance"
	"allscale/internal/dim"
	"allscale/internal/runtime"
	"allscale/internal/transport"
	"allscale/internal/wire"
)

// Registry names of the elastic-membership metrics (rank-0 registry).
const (
	MetricJoins  = "membership.joins"
	MetricDrains = "membership.drains"
	// MetricWarmupBytes sums the bytes a joiner received during its
	// post-join warm-up migration; MetricWarmupUs the wall time of the
	// whole join sequence.
	MetricWarmupBytes = "membership.warmup_bytes"
	MetricWarmupUs    = "membership.warmup_us"
)

const methodMembership = "membership.update"

// drainPasses bounds the write acquisitions a drain spends on one item:
// the first moves the data and refreshes the replicas in use, the
// second removes those; a third means something keeps reading them.
const drainPasses = 3

// membershipUpdate is the wire form of a membership change: the rank
// joining (or, with Depart, leaving) the computation at the given
// fence epoch.
type membershipUpdate struct {
	Rank   int
	Epoch  uint64
	Depart bool
}

// AppendWire implements wire.Marshaler.
func (u *membershipUpdate) AppendWire(buf []byte) ([]byte, error) {
	buf = wire.AppendVarint(buf, int64(u.Rank))
	buf = wire.AppendUvarint(buf, u.Epoch)
	return wire.AppendBool(buf, u.Depart), nil
}

// UnmarshalWire implements wire.Unmarshaler.
func (u *membershipUpdate) UnmarshalWire(d *wire.Decoder) error {
	u.Rank = d.Int()
	u.Epoch = d.Uvarint()
	u.Depart = d.Bool()
	return nil
}

// migrateToken allocates DIM acquisition tokens for membership
// migrations; the offset keeps them clear of task and balancer tokens.
var migrateToken atomic.Uint64

func nextToken() uint64 {
	return 0xE1A5_7100_0000_0000 + migrateToken.Add(1)
}

// membershipHandler applies a membership.update to the locality it is
// registered on. The handler runs before the RPC response is stamped,
// so a joiner's reply already carries the adopted epoch.
func membershipHandler(loc *runtime.Locality) runtime.Method {
	return func(_ int, body []byte) ([]byte, error) {
		var u membershipUpdate
		if err := wire.Decode(body, &u); err != nil {
			return nil, err
		}
		to := runtime.Member
		if u.Depart {
			to = runtime.Departed
		}
		loc.SetPeer(u.Rank, to, u.Epoch)
		return nil, nil
	}
}

// Join admits a latent rank into the live membership: handshake,
// admission on every locality, index-tree reshape, warm-up migration.
// It is idempotent (joining a live rank is a no-op) and serializes with
// recoveries and other membership changes. A dead or departed slot
// cannot be (re)joined.
func (c *Coordinator) Join(rank int) error {
	if rank < 0 || rank >= c.sys.Size() {
		return fmt.Errorf("recovery: join of rank %d out of range", rank)
	}
	c.recMu.Lock()
	defer c.recMu.Unlock()
	switch st := c.sys.Peer(rank); {
	case st.Gone():
		return fmt.Errorf("recovery: rank %d left the membership for good", rank)
	case st != runtime.Latent:
		return nil
	}
	joiner := c.sys.Locality(rank)
	members := c.liveRanks()
	if len(members) == 0 {
		return fmt.Errorf("recovery: no live member to join through")
	}
	anchor := c.sys.Locality(members[0])
	start := time.Now()
	rx := joiner.Metrics().Counter(transport.MetricBytesReceived)
	rx0 := rx.Value()
	sp := c.tracer().Begin("recovery.join", fmt.Sprintf("rank %d", rank), 0)
	defer sp.End()

	fence := c.nextEpoch()

	// 1. Handshake: fence the joiner into the current incarnation
	// epoch. The joiner adopts the epoch inside the handler, so its
	// reply — and every frame it sends from here on — is stamped with
	// it; anything it sent before the handshake stays below the fence
	// the members install in step 2.
	if err := anchor.Call(rank, methodMembership,
		&membershipUpdate{Rank: rank, Epoch: fence}, nil,
		runtime.WithSpec(anchor.ControlSpec())); err != nil {
		sp.SetErr(err)
		return fmt.Errorf("recovery: join handshake with rank %d: %w", rank, err)
	}
	// 2. Admission: every other locality (latent ranks included, so
	// later joins inherit the view) accepts the joiner as a member.
	c.setPeer(rank, runtime.Member, fence)
	// 3. Geometry reshape: re-shape the Fig. 5 index tree over the
	// grown membership — the insertion dual of the crash-time hole
	// routing, via the same retract → republish → re-derive sequence.
	if err := c.reindex(c.liveRanks()); err != nil {
		sp.SetErr(err)
		return err
	}
	// 4. Warm-up: pull a fair share of every grid item onto the joiner
	// (it is the poorest rank — it owns nothing). The migrating fetches
	// revoke stale locate-cache entries on the old owners as they go.
	// Non-grid items warm lazily through demand fetches instead.
	for _, id := range c.sys.Items() {
		if _, err := balance.RebalanceGrid(c.sys, id, balance.Options{Token: nextToken()}); err != nil {
			continue
		}
	}

	c.warmupBytes.Add(rx.Value() - rx0)
	c.warmupUs.Add(uint64(time.Since(start).Microseconds()))
	c.joins.Inc()
	c.report.Joined = append(c.report.Joined, rank)
	return nil
}

// evacuate moves everything src holds of item id to dst, by write
// acquisitions of src's coverage at dst until there is none.
func evacuate(src, dst *dim.Manager, id dim.ItemID) error {
	for pass := 0; ; pass++ {
		cov, err := src.Coverage(id)
		if err != nil || cov == nil || cov.Size() == 0 {
			return nil
		}
		if pass == drainPasses {
			return fmt.Errorf("%v still held after %d evacuations", cov, pass)
		}
		tok := nextToken()
		if err := dst.Acquire(tok, []dim.Requirement{{Item: id, Region: cov, Mode: dim.Write}}); err != nil {
			return err
		}
		dst.Release(tok)
	}
}

// Drain gracefully retires a member rank: placement toward it stops,
// its queued tasks are re-assigned over the remaining members, it
// quiesces, migrates its fragments out, and leaves under a fresh
// fence epoch — zero tasks lost, zero duplicated, and no failure
// detector involvement. Draining the last member or a dead rank is
// refused; draining a latent, draining or departed rank is a no-op.
func (c *Coordinator) Drain(rank int) error {
	if rank < 0 || rank >= c.sys.Size() {
		return fmt.Errorf("recovery: drain of rank %d out of range", rank)
	}
	c.recMu.Lock()
	defer c.recMu.Unlock()
	switch st := c.sys.Peer(rank); {
	case st == runtime.Dead:
		return fmt.Errorf("recovery: rank %d is dead, nothing to drain", rank)
	case st != runtime.Member && st != runtime.Suspect:
		return nil
	}
	loc := c.sys.Locality(rank)
	members := c.liveRanks()
	if len(members) < 2 {
		return fmt.Errorf("recovery: cannot drain rank %d: it is the last member", rank)
	}
	others := members[:0:0]
	for _, r := range members {
		if r != rank {
			others = append(others, r)
		}
	}
	sp := c.tracer().Begin("recovery.drain", fmt.Sprintf("rank %d", rank), 0)
	defer sp.End()

	// 1. Stop admitting placements: every view, the rank's own included,
	// moves it to Draining — no peer places on it, its own assigns go
	// remote and its steals stop. It stays live: its fragments must
	// remain resolvable until they have migrated out. An abort moves it
	// back to Member.
	move := func(to runtime.PeerState) {
		loc.SetPeer(rank, to, 0)
		c.setPeer(rank, to, 0)
	}
	move(runtime.Draining)
	abort := func() { move(runtime.Member) }
	sc := c.sys.Scheduler(rank)
	// Re-assign the queued backlog over the remaining members (the
	// shipper dedups, so a re-sent batch cannot double-execute).
	sc.RedistributeQueued()

	// 2. Quiesce: wait out the running tasks and outstanding calls.
	if err := c.quiesce([]int{rank}); err != nil {
		abort()
		sp.SetErr(err)
		return fmt.Errorf("recovery: drain of rank %d: %w", rank, err)
	}

	// 3. Migrate every owned fragment onto the remaining members via
	// ordinary write acquisitions: the destination copies the bytes and
	// evicts the rank's copy, which revokes stale locate-cache entries
	// and shrinks the rank's published coverage as it goes. A replica the
	// rank's tasks have read is not removed by the first acquisition but
	// refreshed in place (DESIGN.md §6f); nothing reads it here any more,
	// so the second one removes it. An item not met here has no fragment.
	mgr := c.sys.Manager(rank)
	next := 0
	for _, id := range mgr.Items() {
		if size, err := mgr.CoverageSize(id); err != nil || size == 0 {
			continue
		}
		dst := c.sys.Manager(others[next%len(others)])
		next++
		if err := evacuate(mgr, dst, id); err != nil {
			abort()
			err = fmt.Errorf("recovery: migrate item %v off rank %d: %w", id, rank, err)
			sp.SetErr(err)
			return err
		}
	}
	// 4. Retire under a fresh fence epoch — the drained rank itself
	// first, over the wire, so its goodbye ack is answered before any
	// member fences it; straggler frames from its old incarnation are
	// rejected from here on.
	fence := c.nextEpoch()
	anchor := c.sys.Locality(others[0])
	if err := anchor.Call(rank, methodMembership,
		&membershipUpdate{Rank: rank, Epoch: fence, Depart: true}, nil,
		runtime.WithSpec(anchor.ControlSpec())); err != nil {
		// The goodbye was lost on the wire; retire the rank directly —
		// its coverage is already evacuated, nothing depends on the ack.
		loc.SetPeer(rank, runtime.Departed, fence)
	}
	c.setPeer(rank, runtime.Departed, fence)

	// 5. The rank's replica pins will never be confirmed now that it is
	// gone: release them on every remaining member. Released before the
	// mark, a handler parked for the rank would wake, find it still a
	// member and park again, and a fetch served in between would take a
	// pin whose dim.unpin the fence then drops.
	for _, r := range others {
		c.sys.Manager(r).ReleasePinsOf(rank)
	}

	// 6. Re-shape the index tree over the shrunk membership: inner
	// nodes the drained rank hosted re-home onto the survivors.
	if err := c.reindex(others); err != nil {
		sp.SetErr(err)
		return err
	}

	sc.StopQueue()
	c.clearSuspicion(rank)
	c.drains.Inc()
	c.report.Drained = append(c.report.Drained, rank)
	return nil
}
