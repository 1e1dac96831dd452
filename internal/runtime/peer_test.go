package runtime

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// allowed is the transition table of DESIGN.md §6c "Peer state",
// written out pair by pair and independently of moves.
var allowed = map[[2]PeerState]bool{
	{Member, Latent}:     true,
	{Latent, Member}:     true,
	{Member, Suspect}:    true,
	{Suspect, Member}:    true,
	{Member, Draining}:   true,
	{Suspect, Draining}:  true,
	{Draining, Member}:   true,
	{Draining, Departed}: true,
	{Member, Dead}:       true,
	{Suspect, Dead}:      true,
	{Draining, Dead}:     true,
}

var states = []PeerState{Member, Latent, Suspect, Draining, Departed, Dead}

// reach brings rank into state st in l's view through allowed moves,
// at fence epoch 1.
func reach(t *testing.T, l *Locality, rank int, st PeerState) {
	t.Helper()
	path := map[PeerState][]PeerState{
		Latent: {Latent}, Suspect: {Suspect}, Draining: {Draining},
		Departed: {Draining, Departed}, Dead: {Dead},
	}[st]
	for _, to := range path {
		if !l.SetPeer(rank, to, 1) {
			t.Fatalf("rank %d: move to %v refused on the way to %v", rank, to, st)
		}
	}
	if got := l.Peer(rank); got != st {
		t.Fatalf("rank %d is %v, want %v", rank, got, st)
	}
}

// blockCalls registers a method on every locality of s that blocks
// until the returned release is called.
func blockCalls(t *testing.T, s *System) (release func()) {
	gate := make(chan struct{})
	for _, l := range s.Localities() {
		l.Handle("block", func(int, []byte) ([]byte, error) { <-gate; return nil, nil })
	}
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	return release
}

// TestPeerTransitions checks SetPeer against the table for every
// (from, to) pair: an allowed move takes and raises the fence to its
// epoch, a refused one leaves the word as it was, the fence never
// decreases, and a peer's outstanding calls fail exactly once, on its
// move to Dead or Departed — while the local rank's own calls do not.
// Concurrent terminal moves on one rank have exactly one winner.
func TestPeerTransitions(t *testing.T) {
	t.Run("table", func(t *testing.T) {
		for _, from := range states {
			for _, to := range states {
				peerMove(t, from, to)
			}
		}
	})
	t.Run("local", func(t *testing.T) {
		s := newTestSystem(t, 2)
		release := blockCalls(t, s)
		s.Start()
		l := s.Locality(0)
		fut := l.CallAsync(0, "block", nil)
		if l.SetPeer(0, Suspect, 0) {
			t.Fatal("the local rank suspected itself")
		}
		if !l.SetPeer(0, Draining, 0) || !l.SetPeer(0, Departed, 4) {
			t.Fatal("the local rank could not depart in its own view")
		}
		if fut.Done() {
			t.Fatal("the local rank's own call failed on its departure")
		}
		release()
		if _, err := fut.Wait(); err != nil {
			t.Fatalf("the local rank's own call: %v", err)
		}
	})
	t.Run("race", func(t *testing.T) {
		for round := 0; round < 50; round++ {
			terminalRace(t, round)
		}
	})
}

// peerMove moves rank 1 from one state to another in rank 0's view,
// with a call toward rank 1 outstanding, and checks the outcome.
func peerMove(t *testing.T, from, to PeerState) {
	s := newTestSystem(t, 2)
	release := blockCalls(t, s)
	defer release()
	s.Start()
	l := s.Locality(0)
	reach(t, l, 1, from)
	word := l.peers[1].Load()
	errs := l.Metrics().Counter(MetricRPCErrors).Value()
	fut := l.CallAsync(1, "block", nil)
	took := l.SetPeer(1, to, 7)
	if want := allowed[[2]PeerState{from, to}]; took != want {
		t.Errorf("%v→%v: SetPeer = %v, want %v", from, to, took, want)
	}
	fence := l.peers[1].Load() >> stateBits
	switch {
	case !took && l.peers[1].Load() != word:
		t.Errorf("%v→%v: refused move changed the word %#x to %#x", from, to, word, l.peers[1].Load())
	case took && (l.Peer(1) != to || fence != 7):
		t.Errorf("%v→%v: rank 1 is %v at fence %d, want %v at 7", from, to, l.Peer(1), fence, to)
	}
	// A call toward a gone rank fails at once; a move to Dead or
	// Departed fails the one outstanding.
	failed := from.Gone() || took && to.Gone()
	if fut.Done() != failed {
		t.Errorf("%v→%v: call toward rank 1 done = %v, want %v", from, to, fut.Done(), failed)
	}
	if failed {
		if _, err := fut.Wait(); !errors.Is(err, ErrPeerFailed) {
			t.Errorf("%v→%v: call failed with %v, want ErrPeerFailed", from, to, err)
		}
		if got := l.Metrics().Counter(MetricRPCErrors).Value() - errs; got != 1 {
			t.Errorf("%v→%v: %d call failures counted, want exactly 1", from, to, got)
		}
	}
	// A lower epoch never lowers the fence, whether its move takes or not.
	for _, back := range states {
		l.SetPeer(1, back, 3)
		if f := l.peers[1].Load() >> stateBits; f < fence {
			t.Fatalf("%v→%v→%v: fence fell from %d to %d", from, to, back, fence, f)
		}
	}
}

// terminalRace runs concurrent Dead, Departed and Suspect moves, and the
// moves between them, on rank 1 with calls toward it outstanding.
func terminalRace(t *testing.T, round int) {
	s := newTestSystem(t, 2)
	defer blockCalls(t, s)()
	s.Start()
	l := s.Locality(0)
	errs := l.Metrics().Counter(MetricRPCErrors).Value()
	futs := make([]*Future, 8)
	for i := range futs {
		futs[i] = l.CallAsync(1, "block", nil)
	}
	moves := []PeerState{Dead, Departed, Suspect, Member, Draining, Dead, Departed, Suspect, Draining}
	var wins atomic.Int64
	var wg sync.WaitGroup
	for g, to := range moves {
		wg.Add(1)
		go func(g int, to PeerState) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(round*len(moves) + g)))
			for i := 0; i < 20; i++ {
				if l.SetPeer(1, to, uint64(rng.Intn(100))) && to.Gone() {
					wins.Add(1)
				}
			}
		}(g, to)
	}
	wg.Wait()
	if n := wins.Load(); n != 1 || !l.Peer(1).Gone() {
		t.Fatalf("round %d: %d terminal moves won, rank 1 ends %v", round, n, l.Peer(1))
	}
	for i, f := range futs {
		if _, err := f.Wait(); !errors.Is(err, ErrPeerFailed) {
			t.Fatalf("round %d: call %d: %v, want ErrPeerFailed", round, i, err)
		}
	}
	if got := l.Metrics().Counter(MetricRPCErrors).Value() - errs; got != uint64(len(futs)) {
		t.Fatalf("round %d: %d call failures counted for %d calls", round, got, len(futs))
	}
}
