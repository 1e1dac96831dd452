package dim

import (
	"errors"
	"fmt"

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
	st, ok := m.items[id]
	if !ok {
		return nil, r
	}
	return m.notHeldLocked(token, id, st.sharers(r)), r.Difference(st.root)
}

// notHeldLocked clips the copies of item id listed in owners to what
// the acquisition token has not left pinned at their holders.
func (m *Manager) notHeldLocked(token uint64, id ItemID, owners []Located) []Located {
	held := m.held[token]
	if len(held) == 0 {
		return owners
	}
	var out []Located
	for _, o := range owners {
		for _, h := range held {
			if h.rank == o.Rank && h.item == id {
				o.Region = o.Region.Difference(h.region)
			}
		}
		if !o.Region.IsEmpty() {
			out = append(out, o)
		}
	}
	return out
}

// notHeld is notHeldLocked for callers outside the lock.
func (m *Manager) notHeld(token uint64, id ItemID, owners ...Located) []Located {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.notHeldLocked(token, id, owners)
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
			if err := st.evicted(o, &reply); err != nil {
				m.mu.Unlock()
				return fmt.Errorf("dim: evict replica of %v from rank %d: %w", id, o.Rank, err)
			}
		}
		if reply.PinToken != 0 {
			m.held[token] = append(m.held[token], heldPin{rank: o.Rank, item: id, region: reply.Kept, token: reply.PinToken})
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
