package sched

import (
	"fmt"
	"sort"

	"allscale/internal/dim"
	"allscale/internal/runtime"
)

// Crash-recovery support of the scheduler (DESIGN.md §6c). One registry,
// inflight, records every task whose spec this rank handed to a peer —
// placed by assign, forwarded by a drain, granted to a thief: ship
// enters it, whatever the reason for the ship.
//
// When the recovery coordinator learns that a rank died, HandleDeath
// drains the entries pointing at it, and each lost task's origin applies
// the recovery rule to it (Recover). Entries are advisory: a task that
// completed normally leaves a stale entry until swept, and respawning it
// again is harmless — promise fulfilment is idempotent.

// inflightLimit bounds the entries the registry keeps without knowing
// whether they are still needed. A task this rank spawned is needed
// exactly while its promise is pending; of a task spawned elsewhere (a
// forwarded or granted one) this rank cannot tell, so of those it keeps
// at most inflightLimit, the newest — the oldest are the most likely to
// be long finished.
const inflightLimit = 4096

type inflightEntry struct {
	spec   TaskSpec
	target int
	age    uint64 // insertion stamp
}

// inflightRegistry is the map plus what its bound needs: the insertion
// stamp and the size at which the next sweep is due.
type inflightRegistry struct {
	m       map[uint64]inflightEntry
	stamp   uint64
	sweepAt int
}

// trackInflight records tasks about to be shipped to target.
func (s *Scheduler) trackInflight(target int, items []runArgs) {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	r := &s.inflight
	for i := range items {
		r.stamp++
		r.m[items[i].Spec.ID] = inflightEntry{spec: items[i].Spec, target: target, age: r.stamp}
	}
	if len(r.m) >= r.sweepAt {
		s.sweepInflightLocked()
	}
}

// sweepInflightLocked enforces the bound: entries of tasks spawned here
// go when their promise is resolved, entries of tasks spawned elsewhere
// oldest first, down to half the limit. The next sweep is due when the
// registry has doubled, so that one full of pending local tasks is not
// rescanned at every ship.
func (s *Scheduler) sweepInflightLocked() {
	r := &s.inflight
	var foreign []inflightEntry
	for id, e := range r.m {
		if e.spec.Origin != s.loc.Rank() {
			foreign = append(foreign, e)
		} else if !s.loc.PromisePending(e.spec.Promise) {
			delete(r.m, id)
		}
	}
	if over := len(foreign) - inflightLimit/2; over > 0 {
		sort.Slice(foreign, func(i, j int) bool { return foreign[i].age < foreign[j].age })
		for _, e := range foreign[:over] {
			delete(r.m, e.spec.ID)
		}
	}
	r.sweepAt = max(inflightLimit, 2*len(r.m))
}

// takeInflight removes the entry and reports whether it was still
// present. It arbitrates re-execution ownership between the ship-
// failure fallback and the recovery coordinator's HandleDeath: only
// the side that takes the entry may re-execute the task, so a failed
// ship racing a death report cannot run the task twice.
func (s *Scheduler) takeInflight(id uint64) bool {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	if _, ok := s.inflight.m[id]; !ok {
		return false
	}
	delete(s.inflight.m, id)
	return true
}

// clearInflight drops this rank's entries for tasks that have just
// arrived here (accept): wherever it last sent them, they are not there
// any more.
func (s *Scheduler) clearInflight(arrived []runArgs) {
	s.inflightMu.Lock()
	for i := range arrived {
		delete(s.inflight.m, arrived[i].Spec.ID)
	}
	s.inflightMu.Unlock()
}

// HandleDeath drains and returns the specs of all tasks this rank
// handed to the given (dead) rank. The set over-approximates the
// actually lost tasks; callers filter by promise pendency and
// deduplicate across ranks.
func (s *Scheduler) HandleDeath(dead int) []TaskSpec {
	return s.takeInflightIf(func(e *inflightEntry) bool { return e.target == dead })
}

// takeInflightIf removes the entries that match and returns their specs.
func (s *Scheduler) takeInflightIf(match func(*inflightEntry) bool) []TaskSpec {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	var out []TaskSpec
	for id, e := range s.inflight.m {
		if match(&e) {
			out = append(out, e.spec)
			delete(s.inflight.m, id)
		}
	}
	return out
}

// Recover applies the recovery rule (DESIGN.md §6c) at a task's origin
// to the task, lost with rank dead, and reports whether it runs again.
// A task of a cancelled job fails as cancelled. One whose kind declares
// no data requirement for its arguments is respawned through assign,
// which now excludes the dead rank. Any other — it could read zeroes
// where the dead rank's fragments were — fails with
// runtime.ErrPeerFailed, as does one whose respawn fails.
func (s *Scheduler) Recover(spec TaskSpec, dead int) (respawned bool) {
	t := &task{spec: spec}
	err := fmt.Errorf("%w: task %d lost on rank %d", runtime.ErrPeerFailed, spec.ID, dead)
	switch {
	case spec.Job != 0 && s.jobCancelled(spec.Job):
		s.stats.cancelledRespawns.Inc()
		err = s.countCancelled(&spec)
	case !s.anyReq(&spec, func(dim.Requirement) bool { return true }):
		s.stats.respawns.Inc()
		here, aerr := s.assign(t)
		if here {
			s.enqueueAt(-1, t)
		}
		if aerr == nil {
			return true
		}
		err = fmt.Errorf("%w: respawn: %v", err, aerr)
	}
	s.leave(t, failed(err))
	return false
}

// placeable reports whether a rank may receive task placements: it is
// a Member in this rank's view. A rank not placeable in its own view
// keeps no work: it places remotely, forwards what is shipped to it and
// does not steal.
func (s *Scheduler) placeable(rank int) bool { return s.loc.Peer(rank) == runtime.Member }

// nextLive returns the first placeable rank after target (wrapping),
// falling back to the local rank when every other rank is dead,
// suspect or outside the membership.
func (s *Scheduler) nextLive(target int) int {
	size := s.loc.Size()
	for off := 1; off < size; off++ {
		r := (target + off) % size
		if s.placeable(r) {
			return r
		}
	}
	return s.loc.Rank()
}
