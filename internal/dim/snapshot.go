package dim

import (
	"fmt"

	"allscale/internal/dataitem"
)

// LocalSnapshot is the serialized content of one locality's fragment
// of one data item: the covered region plus the element data, as
// produced by ExportLocal and consumed by ResetLocal. It is the unit
// of the resilience manager's checkpoints.
type LocalSnapshot struct {
	Region dataitem.Region
	Data   []byte
}

// Items returns the IDs of all live data items known to this manager,
// in unspecified order.
func (m *Manager) Items() []ItemID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]ItemID, 0, len(m.items))
	for id := range m.items {
		out = append(out, id)
	}
	return out
}

// TypeName returns the registered type name of an item.
func (m *Manager) TypeName(id ItemID) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st, err := m.itemLocked(id)
	if err != nil {
		return "", err
	}
	return st.typ.Name(), nil
}

// CoverageSize returns the element count of the local fragment.
func (m *Manager) CoverageSize(id ItemID) (int64, error) {
	cov, err := m.Coverage(id)
	if err != nil {
		return 0, err
	}
	return cov.Size(), nil
}

// ExportLocal serializes the locality's entire fragment of the item.
// The caller must ensure quiescence (no concurrent writers), e.g. by
// checkpointing between computation phases. A finished writer's refresh
// of a replica kept here may still be on its way — nobody waits for it
// — and is waited for now: the snapshot is a reader like any other.
func (m *Manager) ExportLocal(id ItemID) (*LocalSnapshot, error) {
	var w waiter
	defer w.done()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		st, err := m.itemLocked(id)
		if err != nil {
			return nil, err
		}
		if m.writePinnedLocked(st) != nil {
			if err := m.park(&w, false); err != nil {
				return nil, fmt.Errorf("dim: export of %v blocked on a replica refresh: %w", id, err)
			}
			continue
		}
		cov := st.frag.Region()
		if cov.IsEmpty() {
			return &LocalSnapshot{Region: cov}, nil
		}
		data, err := st.frag.Extract(cov)
		if err != nil {
			return nil, err
		}
		return &LocalSnapshot{Region: cov, Data: data}, nil
	}
}

// VerifyIndex checks the Fig. 5 index invariant across a set of
// managers (one per rank of one system): every inner node's stored
// child coverages equal the union of the leaf coverages of the
// processes in the child subtree. A nil entry marks a dead rank: its
// leaf coverage must have been retracted (counts as empty) and inner
// nodes are expected at the left-most live rank of each subtree. It is
// a test and debugging aid.
func VerifyIndex(managers []*Manager, id ItemID) error {
	p := len(managers)
	liveHostIn := func(lo, l int) int {
		hi := lo + 1<<uint(l-1)
		if hi > p {
			hi = p
		}
		for i := lo; i < hi; i++ {
			if managers[i] != nil {
				return i
			}
		}
		return -1
	}
	var empty dataitem.Region
	leafCov := make([]dataitem.Region, p)
	for i, m := range managers {
		if m == nil {
			continue
		}
		cov, err := m.Coverage(id)
		if err != nil {
			return err
		}
		leafCov[i] = cov
		if empty == nil {
			empty = cov.Difference(cov)
		}
	}
	if empty == nil {
		return fmt.Errorf("dim: verify index: no live managers")
	}
	for i := range leafCov {
		if leafCov[i] == nil {
			leafCov[i] = empty
		}
	}
	unionOf := func(lo, hi int) dataitem.Region {
		u := empty
		for i := lo; i < hi && i < p; i++ {
			u = u.Union(leafCov[i])
		}
		return u
	}
	root := rootLevel(p)
	for l := 2; l <= root; l++ {
		span := 1 << uint(l-1)
		for lo := 0; lo < p; lo += span {
			host := liveHostIn(lo, l)
			if host < 0 {
				continue
			}
			m := managers[host]
			m.mu.Lock()
			st, err := m.itemLocked(id)
			if err != nil {
				m.mu.Unlock()
				return err
			}
			s := st.index[l]
			var left, right dataitem.Region = st.typ.EmptyRegion(), st.typ.EmptyRegion()
			if s != nil {
				left, right = s.left, s.right
			}
			m.mu.Unlock()

			childSpan := span / 2
			if !left.Equal(unionOf(lo, lo+childSpan)) {
				return fmt.Errorf("dim: index node (%d,%d) left = %v, want %v", lo, l, left, unionOf(lo, lo+childSpan))
			}
			if lo+childSpan < p {
				if !right.Equal(unionOf(lo+childSpan, lo+span)) {
					return fmt.Errorf("dim: index node (%d,%d) right = %v, want %v", lo, l, right, unionOf(lo+childSpan, lo+span))
				}
			}
		}
	}
	return nil
}

// writePinnedLocked returns the part of the item's fragment held under
// write-mode pins — replicas kept for a writer elsewhere, unreadable
// until refreshed — or nil if there is none.
func (m *Manager) writePinnedLocked(st *itemState) dataitem.Region {
	var out dataitem.Region
	for _, e := range st.locks {
		if p, ok := m.pins[e.token]; ok && p.write {
			if out == nil {
				out = e.region
			} else {
				out = out.Union(e.region)
			}
		}
	}
	return out
}

// CheckSystemInvariants validates the Section 2.5 safety properties
// on the live system state of one item across all managers of a
// system (one per rank):
//
//   - satisfied requirements: every locked region is locally present;
//   - exclusive writes: a write-locked region has no copy on any
//     other rank — storage a rank keeps write-pinned for the writer's
//     refresh is not one: nothing can read it.
//
// It is intended for quiescent or read-mostly points; checking while
// migrations are in flight can report transient multi-copy states of
// unlocked data (which the model permits).
func CheckSystemInvariants(managers []*Manager, id ItemID) error {
	type lockInfo struct {
		rank   int
		region dataitem.Region
	}
	var writes []lockInfo
	covs := make([]dataitem.Region, len(managers))
	for rank, m := range managers {
		cov, err := m.Coverage(id)
		if err != nil {
			return err
		}
		m.mu.Lock()
		if st, ok := m.items[id]; ok {
			if pinned := m.writePinnedLocked(st); pinned != nil {
				cov = cov.Difference(pinned)
			}
		}
		m.mu.Unlock()
		covs[rank] = cov
		read, write, err := m.LockedRegions(id)
		if err != nil {
			return err
		}
		for _, r := range append(read, write...) {
			if !r.Difference(cov).IsEmpty() {
				return fmt.Errorf("dim: rank %d holds lock on absent region %v (satisfied requirements)", rank, r.Difference(cov))
			}
		}
		for _, w := range write {
			writes = append(writes, lockInfo{rank: rank, region: w})
		}
	}
	for _, w := range writes {
		for rank, cov := range covs {
			if rank == w.rank {
				continue
			}
			if inter := cov.Intersect(w.region); !inter.IsEmpty() {
				return fmt.Errorf("dim: write-locked region %v of rank %d replicated at rank %d (exclusive writes)", inter, w.rank, rank)
			}
		}
	}
	return nil
}
