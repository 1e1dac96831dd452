package dim

import (
	"errors"
	"fmt"
	"sort"

	"allscale/internal/dataitem"
	"allscale/internal/runtime"
	"allscale/internal/trace"
)

// Owner-tracked sharers (DESIGN.md §6f, coherence rule 3).
//
// Every element has at most one root copy (itemState.root), and every
// other copy of it is reachable from the root holder along lent
// records: a copy can only be made from an existing copy, and every
// export records the importer in the exporter's lent map. A write
// acquisition inside root therefore needs no index walk: it drops the
// recorded sharers, each of which answers with its own records for the
// region, until the chain ends.
//
// Data leaves a rank only by such a drop, sent by a rank that holds the
// same elements under a write lock. The evicted holder's records inside
// the dropped region — and its root role, if it had it — go to the
// evictor, and a record of the evictor stays behind: the evictor's copy
// may have been made from the evicted one, which was then the root
// holder's only link to it. A record may outlive the copy at the peer
// (someone else evicted it first), which costs one drop answered
// "nothing here".
//
// A replica that its holder's tasks have read since it was installed
// (itemState.used) is not removed by the drop but kept, write-locked
// under a pin the writer releases with the new content (keep and
// refresh): the record of it stays with the writer, which remembers on
// its token (Manager.held) that the copy is accounted for.

// lend records that peer holds a copy of r: made from this fragment,
// made from the fragment of a holder this rank evicted, or the copy
// that evicted this one.
func (st *itemState) lend(peer int, r dataitem.Region) {
	if cur, ok := st.lent[peer]; ok {
		r = cur.Union(r)
	}
	st.lent[peer] = r
}

// inherit takes over what an evicted holder handed back: its root role
// and its records. The reply never names this rank.
func (st *itemState) inherit(reply *dropReply) {
	st.root = st.root.Union(reply.Root)
	for _, o := range reply.Sharers {
		st.lend(o.Rank, o.Region)
	}
}

// sharers returns the lent records intersecting r, clipped to r, in
// rank order.
func (st *itemState) sharers(r dataitem.Region) []Located {
	var out []Located
	for peer, lr := range st.lent {
		if part := lr.Intersect(r); !part.IsEmpty() {
			out = append(out, Located{Region: part, Rank: peer})
		}
	}
	if len(out) > 1 {
		sort.Slice(out, func(i, j int) bool { return out[i].Rank < out[j].Rank })
	}
	return out
}

// unlend deletes the record of r copied to peer.
func (st *itemState) unlend(peer int, r dataitem.Region) {
	if cur, ok := st.lent[peer]; ok {
		if rest := cur.Difference(r); rest.IsEmpty() {
			delete(st.lent, peer)
		} else {
			st.lent[peer] = rest
		}
	}
}

// release ends this rank's part in region r, which `to` is evicting:
// the root role and the lent records inside r go to it. A record of
// `to` itself is dropped — it knows.
func (st *itemState) release(r dataitem.Region, to int) *dropReply {
	reply := &dropReply{Root: st.root.Intersect(r)}
	st.root = st.root.Difference(r)
	for _, o := range st.sharers(r) {
		st.unlend(o.Rank, o.Region)
		if o.Rank != to {
			reply.Sharers = append(reply.Sharers, o)
		}
	}
	return reply
}

// resetDirectory gives up the root region and every sharer record —
// and, at the index root host, the account of where root copies exist:
// the next write acquisition of any region walks the index and claims
// the root role anew. What is a replica is forgotten with it: until it
// is fetched anew, every part of the fragment is dropped for real.
func (st *itemState) resetDirectory() {
	st.root = st.typ.EmptyRegion()
	st.rooted = st.typ.EmptyRegion()
	st.used = st.typ.EmptyRegion()
	st.unused = st.typ.EmptyRegion()
	clear(st.lent)
}

// installed notes that r was just written into the fragment from
// another rank's copy: a replica no task here has seen yet.
func (st *itemState) installed(r dataitem.Region) {
	st.used = st.used.Difference(r)
	st.unused = st.unused.Union(r)
}

// granted notes that r was locked for a local task. Only the first
// grant after an install does any region algebra.
func (st *itemState) granted(r dataitem.Region) {
	if st.unused.IsEmpty() {
		return
	}
	if hit := st.unused.Intersect(r); !hit.IsEmpty() {
		st.unused = st.unused.Difference(hit)
		st.used = st.used.Union(hit)
	}
}

// forget removes r from the fragment.
func (st *itemState) forget(r dataitem.Region) error {
	if err := st.frag.Resize(st.frag.Region().Difference(r)); err != nil {
		return err
	}
	st.used = st.used.Difference(r)
	st.unused = st.unused.Difference(r)
	return nil
}

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
		// That copy is gone or pinned, and its holder has forgotten the
		// copies made from it: they are ours to answer for until the chase
		// has reached them, should it fail half-way.
		m.mu.Lock()
		st, ok := m.items[id]
		if ok {
			if err := st.fitsDrop(&reply); err != nil {
				m.mu.Unlock()
				return fmt.Errorf("dim: evict replica of %v from rank %d: %w", id, o.Rank, err)
			}
			st.unlend(o.Rank, o.Region)
			st.inherit(&reply)
		}
		if reply.PinToken != 0 {
			if ok {
				st.lend(o.Rank, reply.Kept)
			}
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
