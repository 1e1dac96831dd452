package dim

import (
	"errors"
	"fmt"
	"slices"

	"allscale/internal/dataitem"
	"allscale/internal/runtime"
	"allscale/internal/trace"
)

// Owner-tracked sharers (DESIGN.md §6f, coherence rule 3), the
// Manager's side: the chase of a write acquisition's evictions along the
// sharer records (rules.go holds the records and their rules).

// sharersOf returns the lent records intersecting r that the
// acquisition token does not hold pinned (left in place until evict has
// dealt with the copy each one names) and the part of r outside the
// root region.
func (m *Manager) sharersOf(token uint64, id ItemID, r dataitem.Region) (sharers []Located, unrooted dataitem.Region) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.itemLocked(id)
	if err != nil {
		return nil, r
	}
	return st.notHeld(token, st.sharers(r)), r.Difference(st.root)
}

// notHeld is the rule notHeld on item id, for callers outside the lock.
func (m *Manager) notHeld(token uint64, id ItemID, owners ...Located) []Located {
	m.mu.Lock()
	defer m.mu.Unlock()
	if st, ok := m.items[id]; ok {
		return st.notHeld(token, owners)
	}
	return owners
}

// errContended reports a drop turned away by a lower rank that has
// write-locked its copy of the region.
var errContended = errors.New("a lower rank is acquiring the region for writing")

// evict drops the copy o names and then every copy made from it: each
// drop reply lists the evicted holder's own sharers of the region,
// which are chased in turn. The caller must hold a write lock (token's)
// on the region with the data locally present — that copy is what
// makes destroying the others safe, and the lock is what keeps a new
// copy from being made behind the chase (any still in flight is pinned
// at its source, whose drop waits for the pin and then reports it). A
// holder that keeps its copy stays on record, and the pin it took goes
// on the token. span is the acquisition's.
func (m *Manager) evict(token uint64, id ItemID, o Located, span trace.SpanID) error {
	work := []Located{o}
	for len(work) > 0 {
		o, work = work[len(work)-1], work[:len(work)-1]
		if o.Rank == m.Rank() {
			continue
		}
		// A copy this acquisition holds pinned since an earlier drop may
		// be listed again by a later one: dropping it twice would wait
		// for our own pin.
		rest := m.notHeld(token, id, o)
		if len(rest) == 0 {
			continue
		}
		o = rest[0]
		// Like a fetch, a drop may wait out a reader at the holder: it
		// rides the data-plane profile, not the bounded control-plane
		// one.
		var reply dropReply
		if err := m.loc.Call(o.Rank, methodDrop, &dropArgs{Item: id, Region: o.Region}, &reply, m.dataOpt(), runtime.WithParent(span)); err != nil {
			return fmt.Errorf("dim: evict replica of %v from rank %d: %w", id, o.Rank, err)
		}
		if reply.Contended {
			return fmt.Errorf("dim: evict replica of %v from rank %d: %w", id, o.Rank, errContended)
		}
		m.mu.Lock()
		if st, ok := m.items[id]; ok {
			if _, err := st.evicted(token, o, &reply, false, nil); err != nil {
				m.mu.Unlock()
				return fmt.Errorf("dim: evict replica of %v from rank %d: %w", id, o.Rank, err)
			}
		}
		m.mu.Unlock()
		work = append(work, reply.Sharers...)
	}
	return nil
}

// ExclusivelyOwned reports whether the whole region is locally
// present and provably the item's only copy: inside the root region
// and lent to nobody.
func (m *Manager) ExclusivelyOwned(id ItemID, r dataitem.Region) bool {
	sharers, unrooted := m.sharersOf(0, id, r)
	return unrooted.IsEmpty() && len(sharers) == 0
}

// A shipped writer carries its origin's eviction (DESIGN.md §6f
// "Carried evictions", the claim rows): its origin serves the drop as it
// ships it (Carry), and at the destination the pin is the task's claim
// (TakeCarried) until its acquisition locks the region (start) and
// Release refreshes it. Anything else that needs the region first (yield)
// and the task leaving without it (Release) end it with a refresh; at the
// origin it turns away every evictor but the destination (drop); a ship
// given up settles it without a refresh (SettleCarried).

// sendRefreshes sends each refresh in the dim.unpin that ends its pin —
// a notice (Notify) the link delivers once and nobody waits for.
func (m *Manager) sendRefreshes(rs []refresh) {
	for _, r := range rs {
		m.refreshSent.Inc()
		m.refreshBytes.Add(uint64(len(r.data)))
		m.loc.Notify(r.rank, methodUnpin, &unpinArgs{Token: r.token, Data: r.data, Read: r.read})
	}
}

// Carry serves, at the origin of a task shipped to rank `to`, the drop
// each of the task's write requirements would send here (carry), and
// returns what it kept, for the task's frame. A destination that has left
// gets nothing: nobody would end the pin.
func (m *Manager) Carry(to int, reqs []Requirement) []Carried {
	if !slices.ContainsFunc(reqs, func(rq Requirement) bool { return rq.Mode == Write }) {
		return nil
	}
	var out []Carried
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.gone(to) != nil {
		return nil
	}
	for _, rq := range reqs {
		st, ok := m.items[rq.Item]
		if !ok || rq.Mode != Write {
			continue
		}
		token := m.pinTokenLocked()
		if kept := st.carry(to, m.Rank(), rq.Region, token); kept != nil {
			m.dropKept.Inc()
			m.dropCarried.Inc()
			out = append(out, Carried{Item: rq.Item, Kept: kept, Token: token})
		}
	}
	return out
}

// SettleCarried ends, at the origin, the pins of a ship to rank `to` that
// the RPC layer gave up, without a refresh (departed): the task may have
// run there before the verdict.
func (m *Manager) SettleCarried(to int, cs []Carried) {
	for _, c := range cs {
		_, _ = m.handleUnpin(to, &unpinArgs{Token: c.Token})
	}
}

// TakeCarried takes in, at the destination, the evictions the origin
// `from` carried for the n tasks of one frame, carried(i) giving task i's
// token and evictions. It refuses the frame, filing nothing, if one of
// them does not fit its item. Each is taken in as the task's claim
// (takeCarried). A destroyed item is ignored, one not met here made
// (itemLocked).
func (m *Manager) TakeCarried(from, n int, carried func(i int) (token uint64, cs []Carried)) error {
	i := 0
	for ; i < n; i++ {
		if _, cs := carried(i); len(cs) > 0 {
			break
		}
	}
	if i == n {
		return nil
	}
	m.mu.Lock()
	for j := i; j < n; j++ {
		_, cs := carried(j)
		for _, c := range cs {
			if _, err := m.itemFits(c.Item, c.Kept); err != nil && !errors.Is(err, errDestroyed) {
				m.mu.Unlock()
				return fmt.Errorf("dim: carried eviction of %v: %w", c.Item, err)
			}
		}
	}
	var yields []refresh
	for ; i < n; i++ {
		token, cs := carried(i)
		for _, c := range cs {
			if st, ok := m.items[c.Item]; ok {
				yields = st.takeCarried(token, from, c, yields)
			}
		}
	}
	m.mu.Unlock()
	if len(yields) > 0 { // from the sched.runb handler, which sends nothing
		m.loc.Go(func() { m.sendRefreshes(yields) })
	}
	return nil
}

// A reader's release carries its drop (DESIGN.md §6f "Given back"): the
// part of a replica a writer's refresh installed goes back to that writer
// as its local reader lets go (Release, giveBack), in an ack-only
// dim.carry notice that the writer files as a standing claim
// (handleCarry). The writer's next local write that meets it takes it
// over and sends no dim.drop; whatever waits for the part at its holder
// asks it back first (reclaimLocked, handleReclaim).

// carryNote is a dim.carry notice to rank.
type carryNote struct {
	rank int
	args carryArgs
}

// handleCarry files, at the writer, the part its holder `from` gave back
// as a standing claim (takeCarried, owner standing). Served in frame
// order (HandleInline), ahead of the ship or fulfilment whose task writes
// the part, it sends nothing itself: a claim that yields at once sends
// its refresh, and a notice from another recovery epoch — a retraction
// has cleared, or will clear, one of the pin's two records — its refusal,
// an unpin without data, from a goroutine of their own. A notice from a
// holder that has left, or for an item destroyed here, is ignored.
func (m *Manager) handleCarry(from int, args *carryArgs) (*struct{}, error) {
	m.mu.Lock()
	st, err := m.itemFits(args.Item, args.Kept)
	if err != nil || m.gone(from) != nil {
		m.mu.Unlock()
		if errors.Is(err, errDestroyed) {
			err = nil
		}
		return &struct{}{}, err
	}
	var yields []refresh
	refused := args.Epoch != m.epoch
	if !refused {
		yields = st.takeCarried(standing, from, args.Carried, nil)
	}
	m.mu.Unlock()
	switch {
	case refused:
		m.loc.Go(func() { m.loc.Notify(from, methodUnpin, &unpinArgs{Token: args.Token}) })
	case len(yields) > 0:
		m.loc.Go(func() { m.sendRefreshes(yields) })
	}
	return &struct{}{}, nil
}

// handleReclaim ends, at the writer, the standing claim on the pin token
// of holder `from` (reclaim), wherever it is held: something there waits
// for the part. A claim a local write has taken over ends with that
// write's release.
func (m *Manager) handleReclaim(from int, args *unpinArgs) (*struct{}, error) {
	var yields []refresh
	m.mu.Lock()
	for _, st := range m.items {
		yields = st.reclaim(from, args.Token, yields)
	}
	m.mu.Unlock()
	m.sendRefreshes(yields)
	return &struct{}{}, nil
}

// reclaimLocked asks the writers of the given pins on r of item id that
// nobody has asked back yet for them — but a drop's sender from
// (reclaims) — in dim.reclaim notices sent outside the lock, which is
// held on entry and on return. It reports
// whether it asked: the caller looks again before it parks.
func (m *Manager) reclaimLocked(id ItemID, r dataitem.Region, from int) bool {
	st, ok := m.items[id]
	if !ok {
		return false
	}
	asks := st.reclaims(r, from, nil)
	if len(asks) == 0 {
		return false
	}
	m.mu.Unlock()
	for _, g := range asks {
		m.dropReclaimed.Inc()
		m.loc.Notify(g.rank, methodReclaim, &unpinArgs{Token: g.token})
	}
	m.mu.Lock()
	return true
}
