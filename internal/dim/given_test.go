package dim

import (
	"testing"
	"time"

	"allscale/internal/dataitem"
	"allscale/internal/runtime"
)

// A reader's release carries its drop (DESIGN.md §6f "Given back"): a
// holder that has read its writer's refresh gives the part back as the
// read ends, and the writer holds it as a standing claim. The tests below
// build one and end it each way a standing claim ends. Every wait is
// bounded; none sleeps to let something happen.

// givenRig is an 8×8 item whose copy at rank h is given back to rank w:
// w owns it, h has read w's refresh of its replica and let go. Ranks
// readers hold a replica too, copied from w before h's and refreshed
// since, but not read again.
type givenRig struct {
	ts   *testSystem
	id   ItemID
	r    dataitem.Region
	w, h int
}

func newGivenRig(t *testing.T, n, w, h int, readers ...int) *givenRig {
	t.Helper()
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	g := &givenRig{ts: newTestSystem(t, n, typ), r: gr(0, 0, 8, 8), w: w, h: h}
	g.id, _ = g.ts.managers[0].CreateItem(typ)
	g.ts.write(t, w, g.id, g.r, 1)
	for _, rank := range append(readers, h) {
		g.ts.touch(t, rank, g.id, g.r, Read) // a fetch: nothing goes back
	}
	g.ts.write(t, w, g.id, g.r, 2) // the drop keeps h's replica, the release refreshes it
	g.ts.settle(t)
	g.ts.touch(t, h, g.id, g.r, Read) // the read of the refresh gives it back
	g.ts.settle(t)
	if s, b := g.claims(); s != 1 || b != 1 {
		t.Fatalf("after the give-back: %d standing claims at rank %d, %d pins given at rank %d, want 1 and 1", s, w, b, h)
	}
	return g
}

// claims returns the standing claims at w and the pins given back at h.
func (g *givenRig) claims() (standingAtW, givenAtH int) {
	for rank, m := range g.ts.managers {
		m.mu.Lock()
		if st, ok := m.items[g.id]; ok {
			switch rank {
			case g.w:
				standingAtW = countFunc(st.held, func(h heldPin) bool { return h.owner == standing })
			case g.h:
				givenAtH = countFunc(st.locks, func(e lockEntry) bool { return e.back != notBack })
			}
		}
		m.mu.Unlock()
	}
	return standingAtW, givenAtH
}

// within runs fn and fails the test if it has not returned after 5 s.
func within(t *testing.T, what string, fn func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("%s still waits after 5 s", what)
	}
}

// access acquires r of g's item at rank in mode, reads cell (1,1) into
// v, writes v+1 there if it writes, and releases.
func (g *givenRig) access(rank int, mode Mode, tok uint64, v *int) error {
	m := g.ts.managers[rank]
	if err := m.Acquire(tok, []Requirement{{Item: g.id, Region: g.r, Mode: mode}}); err != nil {
		return err
	}
	*v = *g.ts.cellAt(rank, g.id, 1, 1)
	if mode == Write {
		*g.ts.cellAt(rank, g.id, 1, 1) = *v + 1
	}
	m.Release(tok)
	return nil
}

// TestStandingClaimTakenOverByTheWrite: the writer's next write takes
// the claim over — it sends no dim.drop — and its release refreshes the
// holder, which reads the new value without a fetch.
func TestStandingClaimTakenOverByTheWrite(t *testing.T) {
	g := newGivenRig(t, 2, 0, 1)
	calls := g.ts.tracedCalls()
	var v int
	within(t, "the write", func() error { return g.access(g.w, Write, 10, &v) })
	g.ts.settle(t)
	within(t, "the read", func() error { return g.access(g.h, Read, 11, &v) })
	if v != 3 {
		t.Errorf("the holder reads %d after the write, want 3", v)
	}
	if c := calls(); c[methodDrop] != 0 || c[methodFetch] != 0 || c[methodUnpin] != 1 {
		t.Errorf("calls: %v, want one dim.unpin, no dim.drop and no dim.fetch", c)
	}
}

// TestHolderReadsAgainBeforeTheWrite: the holder reads the part again
// before its writer writes. It asks it back once (dim.reclaim), the
// writer's claim yields with a refresh, and the read completes with the
// writer's value. Asked back once, the part does not go back again.
// With a reclaim that ends nothing, the read waits for good.
func TestHolderReadsAgainBeforeTheWrite(t *testing.T) {
	g := newGivenRig(t, 2, 0, 1)
	var v int
	within(t, "the holder's second read", func() error { return g.access(g.h, Read, 10, &v) })
	if v != 2 {
		t.Errorf("the holder reads %d, want 2", v)
	}
	g.ts.settle(t)
	if n := g.ts.counterAt(g.h, MetricDropReclaimed); n != 1 {
		t.Errorf("%s = %d, want 1", MetricDropReclaimed, n)
	}
	if s, b := g.claims(); s != 0 || b != 0 {
		t.Errorf("after the read: %d standing claims, %d pins given, want none: a part asked back goes back no more", s, b)
	}
	g.ts.noPins(t, g.id)
}

// TestThirdRankWriterEndsStandingClaim: a writer at a third rank, which
// holds a replica of its own, takes the item: it completes, and every
// copy reads its value. Its drop of the writer's copy ends the claim
// there at once (yield), its refresh on the way to the holder. A drop
// that reaches the holder first meets the pin as its writer's write lock:
// from a higher rank it is turned away, from a lower one it waits, and
// either way the holder asks the part back, so that the retry, or the
// wait, finds it refreshed. Without the yield, the writer keeps a claim
// on a copy it no longer has; without the ask, the holder turns the
// retries away, or holds the wait, for as long as the claim stands.
func TestThirdRankWriterEndsStandingClaim(t *testing.T) {
	const third = 2
	t.Run("write", func(t *testing.T) {
		g := newGivenRig(t, 3, 0, 1, third)
		var v int
		within(t, "the third rank's write", func() error { return g.access(third, Write, 10, &v) })
		if v != 2 {
			t.Errorf("the third rank read %d before writing, want 2", v)
		}
		g.ts.settle(t)
		if s, _ := g.claims(); s != 0 {
			t.Errorf("%d standing claims left at rank %d", s, g.w)
		}
		for _, rank := range []int{g.w, g.h} {
			within(t, "a read", func() error { return g.access(rank, Read, uint64(20+rank), &v) })
			if v != 3 {
				t.Errorf("rank %d reads %d after the third rank's write, want 3", rank, v)
			}
		}
		if err := CheckSystemInvariants(g.ts.managers, g.id); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("drop at the writer", func(t *testing.T) {
		g := newGivenRig(t, 3, 0, 1)
		if _, err := g.ts.managers[g.w].handleDrop(third, &dropArgs{Item: g.id, Region: g.r}); err != nil {
			t.Fatal(err)
		}
		if s, _ := g.claims(); s != 0 {
			t.Errorf("%d standing claims at the writer after the drop of its copy", s)
		}
		await(t, "the holder's pin to take its refresh", func() bool { _, b := g.claims(); return b == 0 })
	})
	t.Run("drop at the holder", func(t *testing.T) {
		g := newGivenRig(t, 3, 0, 1)
		reply, err := g.ts.managers[g.h].handleDrop(third, &dropArgs{Item: g.id, Region: g.r})
		if err != nil || !reply.Contended {
			t.Fatalf("a third rank's drop at the holder: %+v, %v; want it turned away", reply, err)
		}
		await(t, "the part asked back to come back", func() bool { s, b := g.claims(); return s == 0 && b == 0 })
		if n := g.ts.counterAt(g.h, MetricDropReclaimed); n != 1 {
			t.Errorf("%s = %d, want 1", MetricDropReclaimed, n)
		}
	})
	t.Run("lower-ranked drop at the holder", func(t *testing.T) {
		const lower = 0
		g := newGivenRig(t, 3, 1, 2)
		var reply *dropReply
		within(t, "a lower rank's drop at the holder", func() (err error) {
			reply, err = g.ts.managers[g.h].handleDrop(lower, &dropArgs{Item: g.id, Region: g.r})
			return err
		})
		if reply.Contended || !reply.Kept.Equal(g.r) {
			t.Fatalf("a lower rank's drop at the holder: %+v; want it to wait for the part and keep it", reply)
		}
		if s, b := g.claims(); s != 0 || b != 0 {
			t.Errorf("after the drop: %d standing claims, %d pins given, want none", s, b)
		}
		if n := g.ts.counterAt(g.h, MetricDropReclaimed); n != 1 {
			t.Errorf("%s = %d, want 1", MetricDropReclaimed, n)
		}
	})
}

// TestDropCrossingGiveBack: the writer's drop reaches the holder while
// the holder still reads, and waits; the read ends, and the part goes
// back while the drop waits for it. The notice finds the writer's lock
// in the way, so the claim yields at once — one refresh, the content the
// holder read — and the drop goes on and keeps the part under a fresh
// pin: one pin at the holder, one record at the writer, and no refresh
// that finds its pin gone. Filed as a standing claim behind the writer's
// lock instead, the claim would wait for a write that waits for the
// drop, which waits for the claim.
func TestDropCrossingGiveBack(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 2, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := dataitem.Region(gr(0, 0, 8, 8))
	const w, h = 0, 1
	ts.write(t, w, id, r, 1)
	ts.touch(t, h, id, r, Read)
	ts.write(t, w, id, r, 2)
	ts.settle(t)
	const reader, writer = 10, 11
	if err := ts.managers[h].Acquire(reader, []Requirement{{Item: id, Region: r, Mode: Read}}); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan error, 1)
	go func() { acquired <- ts.managers[w].Acquire(writer, []Requirement{{Item: id, Region: r, Mode: Write}}) }()
	ts.awaitParked(t, h, 1) // the drop waits behind the read
	ts.managers[h].Release(reader)
	select {
	case err := <-acquired:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the write still waits 5 s after the read let go")
	}
	ts.settle(t)
	if pins, records := ts.pinCount(h), ts.managers[w].Pins(); pins != 1 || records != 1 {
		t.Errorf("during the write: %d pins at the holder, %d records at the writer, want 1 and 1", pins, records)
	}
	if given, evicted := ts.counterAt(h, MetricDropGiven), ts.counterAt(h, MetricDropEvicted); given != 1 || evicted != 0 {
		t.Errorf("at the holder: %d parts given back, %d drops evicting, want 1 and 0", given, evicted)
	}
	*ts.cellAt(w, id, 1, 1) = 3
	ts.managers[w].Release(writer)
	ts.settle(t)
	if sent, stale := ts.sum(MetricRefreshSent), ts.sum(MetricRefreshStale); sent != 3 || stale != 0 {
		t.Errorf("%d refreshes sent, %d found no pin; want 3 (two writes' and the yield's) and none", sent, stale)
	}
	if got := *ts.cellAt(h, id, 1, 1); got != 3 {
		t.Errorf("the holder holds %d, want 3", got)
	}
	if err := CheckSystemInvariants(ts.managers, id); err != nil {
		t.Fatal(err)
	}
	ts.noPins(t, id)
}

// TestStandingClaimOfADepartedRank: when the writer dies, the holder
// settles the pin it gave back without a refresh (departed), and what it
// still holds of the writer's refresh goes back to nobody; when the
// holder dies, the writer forgets its claim. Kept, the claim would have
// the writer's next write refresh a dead rank, and the holder would give
// a dead rank a pin nobody ends.
func TestStandingClaimOfADepartedRank(t *testing.T) {
	t.Run("writer", func(t *testing.T) {
		g := newGivenRig(t, 2, 0, 1)
		g.ts.sys.Locality(g.h).SetPeer(g.w, runtime.Dead, 0)
		g.ts.managers[g.h].ReleasePinsOf(g.w)
		if n := countGiven(g.ts.managers[g.h], g.id); n != 0 {
			t.Errorf("%d pins given at the holder after its writer died", n)
		}
	})
	t.Run("writer, holder reading", func(t *testing.T) {
		typ := dataitem.NewGridType[int]("field", p(8, 8))
		ts := newTestSystem(t, 2, typ)
		id, _ := ts.managers[0].CreateItem(typ)
		r := dataitem.Region(gr(0, 0, 8, 8))
		const w, h, reader = 0, 1, 10
		ts.write(t, w, id, r, 1)
		ts.touch(t, h, id, r, Read)
		ts.write(t, w, id, r, 2)
		ts.settle(t)
		if err := ts.managers[h].Acquire(reader, []Requirement{{Item: id, Region: r, Mode: Read}}); err != nil {
			t.Fatal(err)
		}
		ts.sys.Locality(h).SetPeer(w, runtime.Dead, 0)
		ts.managers[h].ReleasePinsOf(w)
		ts.managers[h].Release(reader)
		if n := countGiven(ts.managers[h], id); n != 0 {
			t.Errorf("the holder gave %d parts back to its dead writer", n)
		}
	})
	t.Run("holder", func(t *testing.T) {
		g := newGivenRig(t, 2, 0, 1)
		g.ts.sys.Locality(g.w).SetPeer(g.h, runtime.Dead, 0)
		g.ts.managers[g.w].ReleasePinsOf(g.h)
		if s, _ := g.claims(); s != 0 {
			t.Errorf("%d standing claims at the writer after the holder died", s)
		}
	})
}

// TestDestroyEndsStandingClaim: the item is destroyed with the claim
// standing: the claim goes with the writer's state, the pin with the
// holder's once the notice lands, and nothing is refreshed. A give-back
// or an ask that arrives after the destroy makes nothing again (the
// fence, TestLateRequestDoesNotResurrect).
func TestDestroyEndsStandingClaim(t *testing.T) {
	g := newGivenRig(t, 2, 0, 1)
	before := g.ts.sum(MetricRefreshSent)
	if err := g.ts.managers[g.w].DestroyItem(g.id); err != nil {
		t.Fatal(err)
	}
	noticesLanded(t, g.ts.sys.Locality(g.w))
	for _, rank := range []int{g.w, g.h} {
		if g.ts.known(rank, g.id) {
			t.Errorf("rank %d still knows the destroyed item", rank)
		}
	}
	if n := g.ts.sum(MetricRefreshSent) - before; n != 0 {
		t.Errorf("%d refreshes sent for a destroyed item", n)
	}
	late := &carryArgs{Carried{Item: g.id, Kept: g.r, Token: 1<<63 | 1<<48 | 99}, 0}
	if _, err := g.ts.managers[g.w].handleCarry(g.h, late); err != nil {
		t.Errorf("a late give-back: %v, want nothing to do", err)
	}
	if g.ts.known(g.w, g.id) {
		t.Error("a late give-back made the destroyed item again")
	}
}

// TestGiveBackFromBeforeARetractionIsRefused: the writer has entered a
// recovery epoch the holder has not; the holder's give-back names the
// old one, and the writer refuses it with an unpin without data. The
// holder's part goes — stale — and no claim stands for a pin the
// retraction cleared. Filed, the claim would name a pin the holder's own
// retraction removes.
func TestGiveBackFromBeforeARetractionIsRefused(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 2, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := dataitem.Region(gr(0, 0, 8, 8))
	const w, h = 0, 1
	ts.write(t, w, id, r, 1)
	ts.touch(t, h, id, r, Read)
	ts.write(t, w, id, r, 2)
	ts.settle(t)
	ts.managers[w].RetractEpoch(1)
	ts.touch(t, h, id, r, Read) // gives the part back, naming epoch 0
	ts.settle(t)
	await(t, "the refused pin to settle", func() bool { return countGiven(ts.managers[h], id) == 0 })
	if n := ts.counterAt(h, MetricDropGiven); n != 1 {
		t.Fatalf("%s = %d, want 1", MetricDropGiven, n)
	}
	m := ts.managers[w]
	m.mu.Lock()
	held := len(m.items[id].held)
	m.mu.Unlock()
	if held != 0 {
		t.Errorf("the writer holds %d records after refusing the give-back", held)
	}
	if cov := ts.coverage(t, h, id); !cov.IsEmpty() {
		t.Errorf("the holder still holds %v after the refusal", cov)
	}
}

// countGiven counts the pins m holds on item id that it gave back.
func countGiven(m *Manager, id ItemID) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return countFunc(m.items[id].locks, func(e lockEntry) bool { return e.back != notBack })
}
