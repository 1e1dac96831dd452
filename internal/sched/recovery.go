package sched

// Crash-recovery support of the scheduler (DESIGN.md §6c). Two
// registries track every task whose spec this rank handed to a peer:
//
//   - inflight: tasks shipped by assign to a remote target;
//   - handoffs: queued tasks granted to a remote thief.
//
// When the recovery coordinator learns that a rank died, HandleDeath
// drains the entries pointing at it; the specs are either respawned
// onto live ranks (pure-compute tasks) or failed back to their waiters
// for a checkpoint rollback. Entries are advisory over-approximations:
// a task that completed normally leaves a stale entry until swept, and
// respawning it again is harmless — promise fulfilment is idempotent.

// inflightSweepLimit bounds the inflight registry: past it, entries
// whose locally-owned promise is already fulfilled are dropped.
const inflightSweepLimit = 1024

// handoffLimit bounds the steal-handoff FIFO; the oldest entries are
// dropped first (they are the most likely to be long finished).
const handoffLimit = 4096

type inflightEntry struct {
	spec   TaskSpec
	target int
}

type handoffEntry struct {
	spec  TaskSpec
	thief int
}

func (s *Scheduler) trackInflight(spec *TaskSpec, target int) {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	s.inflight[spec.ID] = inflightEntry{spec: *spec, target: target}
	if len(s.inflight) <= inflightSweepLimit {
		return
	}
	for id, e := range s.inflight {
		if e.spec.Origin == s.loc.Rank() && !s.loc.PromisePending(e.spec.Promise) {
			delete(s.inflight, id)
		}
	}
}

// takeInflight removes the entry and reports whether it was still
// present. It arbitrates re-execution ownership between the ship-
// failure fallback and the recovery coordinator's HandleDeath: only
// the side that takes the entry may re-execute the task, so a failed
// ship racing a death report cannot run the task twice.
func (s *Scheduler) takeInflight(id uint64) bool {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	if _, ok := s.inflight[id]; !ok {
		return false
	}
	delete(s.inflight, id)
	return true
}

// stillInflight reports whether the entry is still tracked, without
// removing it: the ship confirmation loop uses it to drop tasks whose
// re-execution the recovery coordinator has already taken over before
// re-shipping a timed-out batch.
func (s *Scheduler) stillInflight(id uint64) bool {
	s.inflightMu.Lock()
	_, ok := s.inflight[id]
	s.inflightMu.Unlock()
	return ok
}

func (s *Scheduler) trackHandoff(spec *TaskSpec, thief int) {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	if len(s.handoffs) >= handoffLimit {
		// Drop the oldest by reslicing: shifting the log down instead
		// moved half a megabyte per granted task once it was full (a
		// fifth of the CPU of a spawn tree). append moves the live
		// entries to a fresh array once per handoffLimit drops.
		s.handoffs[0] = handoffEntry{}
		s.handoffs = s.handoffs[1:]
	}
	s.handoffs = append(s.handoffs, handoffEntry{spec: *spec, thief: thief})
}

// HandleDeath drains and returns the specs of all tasks this rank
// handed to the given (dead) rank — shipped placements and granted
// steals. The set over-approximates the actually lost tasks; callers
// filter by promise pendency and deduplicate across ranks.
func (s *Scheduler) HandleDeath(dead int) []TaskSpec {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	var out []TaskSpec
	for id, e := range s.inflight {
		if e.target == dead {
			out = append(out, e.spec)
			delete(s.inflight, id)
		}
	}
	kept := s.handoffs[:0]
	for _, h := range s.handoffs {
		if h.thief == dead {
			out = append(out, h.spec)
		} else {
			kept = append(kept, h)
		}
	}
	for i := len(kept); i < len(s.handoffs); i++ {
		s.handoffs[i] = handoffEntry{}
	}
	s.handoffs = kept
	return out
}

// Respawn re-schedules a task lost on a dead rank. Placement runs
// through the ordinary assign path, which now excludes dead ranks.
// Tasks of a cancelled job are not resurrected: their promises fail
// with ErrJobCancelled instead (cancel.go).
func (s *Scheduler) Respawn(spec TaskSpec) error {
	if spec.Job != 0 && s.jobCancelled(spec.Job) {
		s.stats.cancelledRespawns.Inc()
		s.failCancelled(&spec)
		return nil
	}
	s.stats.respawns.Inc()
	return s.assign(&spec)
}

// Respawns returns the number of tasks re-scheduled after peer deaths.
func (s *Scheduler) Respawns() uint64 { return s.stats.respawns.Value() }

// placeable reports whether a rank may receive task placements: a
// member that is neither dead nor suspect. The local rank skips the
// suspect check (a rank never distrusts itself) but honors the
// draining flag — a draining rank admits no new work.
func (s *Scheduler) placeable(rank int) bool {
	if rank == s.loc.Rank() {
		return s.loc.IsMember(rank) && !s.draining.Load()
	}
	return s.loc.IsMember(rank) && !s.loc.IsDead(rank) && !s.loc.IsSuspect(rank)
}

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
