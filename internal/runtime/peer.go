package runtime

import (
	"fmt"
	"time"
)

// PeerState is one rank's place in the membership as one locality sees
// it: the (join), (drain) and (crash) rules of the model's dynamic
// semantics as one lifecycle (DESIGN.md §6c "Peer state"). A Locality
// keeps it per rank in one atomic word together with the rank's fence
// epoch, so a reader never sees a state without its fence.
type PeerState uint8

const (
	// Member takes part in the computation and receives placements. It
	// is the zero state: every rank of a new locality starts here.
	Member PeerState = iota
	// Latent is provisioned on the fabric but not joined
	// (core.Config.Latent): it answers control traffic only.
	Latent
	// Suspect went silent past the detector's timeout: placement pauses,
	// calls still work.
	Suspect
	// Draining is leaving gracefully: placement pauses — on every view,
	// its own included — while its data stays resolvable.
	Draining
	// Departed has drained and left for good.
	Departed
	// Dead was declared crashed by the recovery coordinator.
	Dead
)

// moves[from] is the set of states a rank in state from may move to:
// Member→Latent at construction, Latent→Member (join), Member⇄Suspect
// (detector), Member|Suspect→Draining, Draining→Member (abort),
// Draining→Departed, and Member|Suspect|Draining→Dead (crash). Dead
// and Departed are absorbing.
var moves = [...]uint8{
	Member:   1<<Latent | 1<<Suspect | 1<<Draining | 1<<Dead,
	Latent:   1 << Member,
	Suspect:  1<<Member | 1<<Draining | 1<<Dead,
	Draining: 1<<Member | 1<<Departed | 1<<Dead,
	Departed: 0,
	Dead:     0,
}

// The low stateBits of a peer word hold its PeerState, the rest its
// fence epoch.
const (
	stateBits = 3
	stateMask = 1<<stateBits - 1
)

// Live reports whether the rank takes part in the computation: index
// geometry, recovery and LiveRanks range over the live ranks.
func (s PeerState) Live() bool { return s == Member || s == Suspect || s == Draining }

// Gone reports whether the rank left for good: calls and sends toward
// it fail and its frames are fenced.
func (s PeerState) Gone() bool { return s == Departed || s == Dead }

func (s PeerState) String() string {
	return [...]string{"member", "latent", "suspect", "draining", "departed", "dead"}[s]
}

// errGone is the error of a call or send toward a rank that is gone.
func errGone(rank int, st PeerState) error {
	return fmt.Errorf("%w: rank %d %v", ErrPeerFailed, rank, st)
}

// Peer returns rank's state in this locality's view. A rank outside the
// fabric reads as Latent: it never joined.
func (l *Locality) Peer(rank int) PeerState {
	if rank < 0 || rank >= len(l.peers) {
		return Latent
	}
	return PeerState(l.peers[rank].Load() & stateMask)
}

// SetPeer moves rank to state to in this locality's view if the move is
// in the table (moves) and reports whether it was; a refused move
// changes nothing. A rank never suspects itself. The move raises the
// rank's fence to epoch — frames the rank stamped below its fence are
// dropped — and the local epoch with it; the fence never decreases, and
// the callers pass one only for a join, a departure and a death. A join
// resets last-heard, so the detector does not read the silence before
// it as missed heartbeats. On Dead or Departed the peer's outstanding
// calls fail, once: the one move into a terminal state does it.
func (l *Locality) SetPeer(rank int, to PeerState, epoch uint64) bool {
	if rank < 0 || rank >= len(l.peers) || to == Suspect && rank == l.Rank() {
		return false
	}
	var from PeerState
	for {
		old := l.peers[rank].Load()
		from = PeerState(old & stateMask)
		if moves[from]&(1<<to) == 0 {
			return false
		}
		if l.peers[rank].CompareAndSwap(old, max(old>>stateBits, epoch)<<stateBits|uint64(to)) {
			break
		}
	}
	l.adoptEpoch(epoch)
	if from == Latent {
		l.heard[rank].Store(time.Now().UnixNano())
	}
	if to.Gone() && rank != l.Rank() {
		l.failCalls(func(dst int) bool { return dst == rank }, errGone(rank, to))
	}
	return true
}

// LiveRanks returns the Member, Suspect and Draining ranks in ascending
// order: the set over which placement and index geometry range.
func (l *Locality) LiveRanks() []int {
	out := make([]int, 0, len(l.peers))
	for r := range l.peers {
		if l.Peer(r).Live() {
			out = append(out, r)
		}
	}
	return out
}
