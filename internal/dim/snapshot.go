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
// — and is waited for now, and a part given back asked back: the
// snapshot is a reader like any other.
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
		if !st.writePinned().IsEmpty() {
			if m.reclaimLocked(id, st.full, noPin) {
				continue
			}
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
		leafCov[i], empty = cov, cov.Difference(cov)
	}
	if empty == nil {
		return fmt.Errorf("dim: verify index: no live managers")
	}
	unionOf := func(lo, hi int) dataitem.Region {
		u := empty
		for i := lo; i < hi && i < p; i++ {
			if leafCov[i] != nil {
				u = u.Union(leafCov[i])
			}
		}
		return u
	}
	for l := 2; l <= rootLevel(p); l++ {
		span := 1 << uint(l-1)
		for lo := 0; lo < p; lo += span {
			host, hi := lo, min(lo+span, p) // the left-most live rank of the subtree
			for host < hi && managers[host] == nil {
				host++
			}
			if host == hi {
				continue
			}
			m := managers[host]
			m.mu.Lock()
			st, err := m.itemLocked(id)
			s := sides{cov: [2]dataitem.Region{empty, empty}}
			if err == nil && st.index[l] != nil {
				s = *st.index[l]
			}
			m.mu.Unlock()
			if err != nil {
				return err
			}
			for i, child := range [2]int{lo, lo + span/2} {
				if want := unionOf(child, child+span/2); child < p && !s.cov[i].Equal(want) {
					return fmt.Errorf("dim: index node (%d,%d) %s = %v, want %v", lo, l, [2]string{"left", "right"}[i], s.cov[i], want)
				}
			}
		}
	}
	return nil
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
			cov = cov.Difference(st.writePinned())
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
