package sched

import (
	"errors"
	"sync"
	"time"

	"allscale/internal/runtime"
)

// Batched remote task placement (DESIGN.md §6e). assign's remote path
// does not issue one CallAsync per task: placements are appended to a
// per-destination shipper and coalesce into sched.runb frames of up to
// maxShipBatch tasks, so a burst of fine-grained remote spawns crosses
// the fabric as a few large frames.
//
// Delivery is exactly-once in effect, keyed on the ship ATTEMPT, not
// the task: each batch frame carries a sequence number (Seq),
// allocated per destination by the shipper and reused verbatim when
// confirmShip re-ships the batch after a confirmation timeout, plus
// an ack watermark (Ack) — the highest seq at or below which every
// ship to that destination is resolved at the sender (confirmed,
// failed over locally, or abandoned to recovery) and hence will never
// be re-shipped. The receiver admits each (sender, seq) at most once
// and drops whole frames at or below the sender's watermark, so a
// re-shipped batch and a late-delivered original of the same attempt
// cannot both spawn tasks. This sits above the per-call-ID dedup of
// the RPC layer, which retries lost frames of ONE call; a re-ship is
// a fresh call ID the RPC window cannot correlate.
//
// Two properties the seq keying buys over the earlier spec-ID dedup
// ring:
//
//   - A task legitimately re-placed on the same rank by a LATER
//     placement attempt — e.g. shipped here, stolen away, then
//     respawned back by crash recovery after the thief died — arrives
//     under a fresh seq and executes; a spec-ID set conflated that
//     respawn with a re-ship of the old attempt and silently dropped
//     the task.
//   - The receiver's seen set is pruned by the piggybacked watermark
//     and thus bounded by the sender's unresolved ships, instead of a
//     fixed eviction cap that sustained throughput could cycle
//     through within a re-ship window, forgetting an attempt whose
//     duplicate was still deliverable.
//
// Local fallback execution happens only when the target is dead,
// arbitrated against the recovery coordinator via takeInflight.

// methodRunBatch replaces the PR 1 per-task "sched.run" placement RPC.
const methodRunBatch = "sched.runb"

// runBatch is the wire envelope of one coalesced placement frame.
type runBatch struct {
	// Seq identifies the ship attempt at the sending rank (per
	// destination, monotonically increasing, stable across re-ships);
	// Ack is the sender's resolved-ship watermark for this destination.
	Seq   uint64
	Ack   uint64
	Tasks []runArgs
}

const (
	// maxShipBatch bounds the tasks coalesced into one frame.
	maxShipBatch = 64
	// reshipBackoff is the initial pause before re-shipping a batch
	// whose confirmation timed out with the target still live; it
	// doubles per retry up to reshipMax, so a live-but-unreachable
	// peer (asymmetric partition) is probed, not hammered, until the
	// failure detector declares it dead or recovery takes the tasks.
	reshipBackoff = 50 * time.Millisecond
	reshipMax     = 2 * time.Second
)

// shipper is the per-destination coalescing buffer plus the sender
// half of the ship dedup protocol (seq allocation, resolved
// watermark).
type shipper struct {
	mu      sync.Mutex
	pending []runArgs
	active  bool
	// nextSeq is the last allocated ship seq; unresolved holds the
	// seqs of ships still owned by a confirmShip loop (and thus still
	// re-shippable). The ack watermark is the floor below min
	// unresolved.
	nextSeq    uint64
	unresolved map[uint64]struct{}
}

// allocSeq assigns the next ship seq and returns it with the current
// ack watermark.
func (sh *shipper) allocSeq() (seq, ack uint64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.nextSeq++
	seq = sh.nextSeq
	if sh.unresolved == nil {
		sh.unresolved = make(map[uint64]struct{})
	}
	sh.unresolved[seq] = struct{}{}
	return seq, sh.ackFloorLocked()
}

// ackFloor returns the watermark: every seq at or below it is
// resolved and will never be (re-)shipped again.
func (sh *shipper) ackFloor() uint64 {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.ackFloorLocked()
}

func (sh *shipper) ackFloorLocked() uint64 {
	floor := sh.nextSeq
	for seq := range sh.unresolved {
		if seq-1 < floor {
			floor = seq - 1
		}
	}
	return floor
}

// resolve marks a ship attempt finished — confirmed, failed over to
// local execution, or abandoned to recovery — allowing the watermark
// to advance past it.
func (sh *shipper) resolve(seq uint64) {
	sh.mu.Lock()
	delete(sh.unresolved, seq)
	sh.mu.Unlock()
}

// shipSeenState is the receiver half of the ship dedup protocol for
// one sender: ack is the highest watermark seen from it, seen the
// admitted seqs above that. seen needs no eviction cap — entries
// leave as the piggybacked watermark advances, so its size is bounded
// by the sender's unresolved ships.
type shipSeenState struct {
	mu   sync.Mutex
	ack  uint64
	seen map[uint64]struct{}
}

// admitShip decides whether a placement frame (from, seq, ack) is new
// and must execute, recording it if so. A frame at or below the
// sender's watermark is a stale duplicate even when its seq was never
// admitted here: the sender resolved that attempt another way (a
// confirmed re-ship, or recovery/fallback re-execution), so running
// it now would double-execute.
func (s *Scheduler) admitShip(from int, seq, ack uint64) bool {
	st := &s.shipSeen[from]
	st.mu.Lock()
	defer st.mu.Unlock()
	if ack > st.ack {
		st.ack = ack
		for q := range st.seen {
			if q <= ack {
				delete(st.seen, q)
			}
		}
	}
	if seq <= st.ack {
		return false
	}
	if _, dup := st.seen[seq]; dup {
		return false
	}
	if st.seen == nil {
		st.seen = make(map[uint64]struct{})
	}
	st.seen[seq] = struct{}{}
	return true
}

// ship hands one placement to the target's shipper. The first
// appender of an idle shipper becomes its flusher; placements arriving
// while a flush is encoding or awaiting the send path coalesce into
// the next batch.
func (s *Scheduler) ship(target int, item runArgs) {
	sh := &s.shippers[target]
	sh.mu.Lock()
	sh.pending = append(sh.pending, item)
	spawn := !sh.active
	sh.active = true
	sh.mu.Unlock()
	if spawn {
		s.loc.Go(func() { s.shipLoop(target) })
	}
}

// shipLoop drains the shipper until it runs dry, sending chunks of at
// most maxShipBatch tasks and confirming each asynchronously.
func (s *Scheduler) shipLoop(target int) {
	sh := &s.shippers[target]
	for {
		sh.mu.Lock()
		if len(sh.pending) == 0 {
			sh.active = false
			sh.mu.Unlock()
			return
		}
		batch := sh.pending
		sh.pending = nil
		sh.mu.Unlock()
		for len(batch) > 0 {
			n := len(batch)
			if n > maxShipBatch {
				n = maxShipBatch
			}
			chunk := batch[:n:n]
			batch = batch[n:]
			s.stats.shipBatch.ObserveValue(uint64(n))
			seq, ack := sh.allocSeq()
			fut := s.loc.CallAsync(target, methodRunBatch,
				&runBatch{Seq: seq, Ack: ack, Tasks: chunk},
				runtime.WithSpec(s.loc.ControlSpec()))
			s.loc.Go(func() { s.confirmShip(target, seq, chunk, fut) })
		}
	}
}

// confirmShip waits for a batch's acceptance ack and owns the failure
// policy: a confirmed batch is done; a dead target releases its tasks
// to local re-execution under takeInflight arbitration with the
// recovery coordinator; a timeout with the target still live must NOT
// fall back locally — a late-delivered retry of the lost frame may
// still spawn the tasks remotely — so the batch is re-shipped under a
// fresh call ID but the SAME ship seq, which the target admits at
// most once. Whichever way the loop exits, the seq resolves and the
// destination's ack watermark may advance past it.
func (s *Scheduler) confirmShip(target int, seq uint64, batch []runArgs, fut *runtime.Future) {
	sh := &s.shippers[target]
	defer sh.resolve(seq)
	backoff := reshipBackoff
	for {
		_, err := fut.Wait()
		if err == nil {
			return
		}
		if s.loc.Closed() {
			return
		}
		if errors.Is(err, runtime.ErrPeerFailed) || s.loc.IsDead(target) {
			for i := range batch {
				if s.takeInflight(batch[i].Spec.ID) {
					s.stats.localPlaced.Inc()
					s.executeAsync(&batch[i].Spec, batch[i].Variant)
				}
			}
			return
		}
		// Timed out with a live peer: drop tasks whose re-execution
		// the recovery coordinator already took over, re-ship the rest.
		// The re-ship is a subset of the original under the same seq,
		// so whichever frame the receiver admits covers every task the
		// sender still owns.
		retry := batch[:0]
		for i := range batch {
			if s.stillInflight(batch[i].Spec.ID) {
				retry = append(retry, batch[i])
			}
		}
		if len(retry) == 0 {
			return
		}
		batch = retry
		s.stats.reships.Add(uint64(len(batch)))
		time.Sleep(backoff)
		if backoff < reshipMax {
			if backoff *= 2; backoff > reshipMax {
				backoff = reshipMax
			}
		}
		if s.loc.Closed() {
			return
		}
		fut = s.loc.CallAsync(target, methodRunBatch,
			&runBatch{Seq: seq, Ack: sh.ackFloor(), Tasks: batch},
			runtime.WithSpec(s.loc.ControlSpec()))
	}
}
