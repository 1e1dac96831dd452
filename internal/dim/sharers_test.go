package dim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"allscale/internal/dataitem"
	"allscale/internal/region"
	"allscale/internal/runtime"
	"allscale/internal/trace"
)

// touch acquires region r of item id at rank in the given mode and
// releases it again.
func (ts *testSystem) touch(t *testing.T, rank int, id ItemID, r dataitem.Region, mode Mode) {
	t.Helper()
	tok := uint64(time.Now().UnixNano())
	if err := ts.managers[rank].Acquire(tok, []Requirement{{Item: id, Region: r, Mode: mode}}); err != nil {
		t.Fatalf("%v of %v at rank %d: %v", mode, r, rank, err)
	}
	ts.managers[rank].Release(tok)
}

// lentTo returns what rank's directory records as copied to peer.
func (ts *testSystem) lentTo(rank int, id ItemID, peer int) dataitem.Region {
	m := ts.managers[rank]
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.items[id]
	if lr, ok := st.lent[peer]; ok {
		return lr
	}
	return st.typ.EmptyRegion()
}

// lentCount is the number of ranks with a sharer record at rank.
func (ts *testSystem) lentCount(rank int, id ItemID) int {
	m := ts.managers[rank]
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.items[id].lent)
}

// settle waits until every call nobody waits for — the unpins, with
// and without a refresh — has been answered.
func (ts *testSystem) settle(t *testing.T) {
	t.Helper()
	for rank := range ts.managers {
		ts.awaitPending(t, rank, 0)
	}
}

// await polls cond for up to five seconds.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// awaitPending waits until rank has exactly n calls outstanding.
func (ts *testSystem) awaitPending(t *testing.T, rank, n int) {
	t.Helper()
	await(t, fmt.Sprintf("%d calls pending at rank %d", n, rank),
		func() bool { return ts.sys.Locality(rank).PendingCalls() == n })
}

// awaitParked waits until n lock waits are parked at rank.
func (ts *testSystem) awaitParked(t *testing.T, rank int, n int64) {
	t.Helper()
	parked := ts.sys.Locality(rank).Metrics().Gauge(MetricLockWaiters)
	await(t, fmt.Sprintf("%d lock waits parked at rank %d", n, rank),
		func() bool { return parked.Value() == n })
}

// pinCount is the number of pins, of either mode, rank holds.
func (ts *testSystem) pinCount(rank int) int {
	m := ts.managers[rank]
	m.mu.Lock()
	defer m.mu.Unlock()
	return pinsLocked(m)
}

// pinsLocked counts the lock entries of m that are pins.
func pinsLocked(m *Manager) (n int) {
	for _, st := range m.items {
		for _, e := range st.locks {
			if e.pin != noPin {
				n++
			}
		}
	}
	return n
}

// noPins checks, at a quiescent point, that no pin has outlived its
// acquisition: no pin and no refresh owed anywhere, and no lock on id.
func (ts *testSystem) noPins(t *testing.T, id ItemID) {
	t.Helper()
	for rank, m := range ts.managers {
		m.mu.Lock()
		pins, held, locks := pinsLocked(m), len(m.items[id].held), len(m.items[id].locks)
		m.mu.Unlock()
		if pins != 0 || held != 0 || locks != 0 {
			t.Errorf("rank %d at quiescence: %d pins, %d acquisitions owing a refresh, %d locks", rank, pins, held, locks)
		}
	}
}

func (ts *testSystem) coverage(t *testing.T, rank int, id ItemID) dataitem.Region {
	t.Helper()
	cov, err := ts.managers[rank].Coverage(id)
	if err != nil {
		t.Fatal(err)
	}
	return cov
}

// sum adds a counter over all ranks.
func (ts *testSystem) sum(name string) (total uint64) {
	for rank := range ts.managers {
		total += ts.counterAt(rank, name)
	}
	return total
}

// tracedCalls attaches tracers and returns a function counting the
// rpc.call spans by method recorded since.
func (ts *testSystem) tracedCalls() func() map[string]int {
	tracers := make([]*trace.Tracer, len(ts.managers))
	for rank := range ts.managers {
		tracers[rank] = trace.New(rank, 1<<12)
		ts.sys.Locality(rank).SetTracer(tracers[rank])
	}
	return func() map[string]int {
		calls := make(map[string]int)
		for _, sp := range trace.Merge(tracers...) {
			if sp.Name == "rpc.call" {
				calls[sp.Detail]++
			}
		}
		return calls
	}
}

// TestWriteRevokesReplicaChainWithoutWalk: rank 1 owns the region,
// rank 0 copies it from rank 1 and rank 2 copies it from rank 0 (the
// first holder its resolution lists). Rank 1's next write must reach
// both — the second through the first one's drop reply — and must not
// ask the index. Both replicas were read, so both are held and
// refreshed, and on record with the writer directly from then on; a
// further write, with no read in between, removes them.
func TestWriteRevokesReplicaChainWithoutWalk(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 3, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := dataitem.Region(gr(0, 0, 8, 8))

	ts.touch(t, 1, id, r, Write)
	if !ts.managers[1].ExclusivelyOwned(id, r) {
		t.Fatal("first-touch writer does not own its region exclusively")
	}
	ts.touch(t, 0, id, r, Read)
	ts.touch(t, 2, id, r, Read)
	if !ts.lentTo(1, id, 0).Equal(r) || !ts.lentTo(0, id, 2).Equal(r) || ts.lentCount(1, id) != 1 {
		t.Fatalf("chain is not 1 -> 0 -> 2: rank 1 lent %v to 0 (%d records), rank 0 lent %v to 2",
			ts.lentTo(1, id, 0), ts.lentCount(1, id), ts.lentTo(0, id, 2))
	}
	if ts.managers[1].ExclusivelyOwned(id, r) {
		t.Fatal("a lent region still counts as exclusively owned")
	}

	locates, rpcs := ts.sum(MetricLocates), ts.sum(MetricLocateRPCs)
	walked := ts.counterAt(1, MetricRevokeWalked)
	direct := ts.counterAt(1, MetricRevokeDirect)
	tok := uint64(77)
	if err := ts.managers[1].Acquire(tok, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	if err := CheckSystemInvariants(ts.managers, id); err != nil {
		t.Fatal(err)
	}
	frag, _ := ts.managers[1].Fragment(id)
	frag.(*dataitem.GridFragment[int]).Set(p(2, 2), 5)
	ts.managers[1].Release(tok)
	ts.settle(t)
	for _, rank := range []int{0, 2} {
		if cov := ts.coverage(t, rank, id); !cov.Equal(r) {
			t.Fatalf("rank %d holds %v after the owner's write, want its replica kept", rank, cov)
		}
		frag, _ := ts.managers[rank].Fragment(id)
		if got := frag.(*dataitem.GridFragment[int]).At(p(2, 2)); got != 5 {
			t.Fatalf("rank %d's kept replica holds %d, want the owner's 5", rank, got)
		}
	}
	if ts.sum(MetricDropKept) != 2 || ts.sum(MetricRefreshSent) != 2 || ts.sum(MetricDropEvicted) != 0 {
		t.Errorf("drops kept %d, evicted %d, refreshes %d, want 2, 0, 2",
			ts.sum(MetricDropKept), ts.sum(MetricDropEvicted), ts.sum(MetricRefreshSent))
	}
	if d := ts.sum(MetricLocates) - locates; d != 0 {
		t.Errorf("the write resolved %d regions, want none", d)
	}
	if d := ts.sum(MetricLocateRPCs) - rpcs; d != 0 {
		t.Errorf("the write cost %d locate RPCs, want none", d)
	}
	if ts.counterAt(1, MetricRevokeWalked) != walked || ts.counterAt(1, MetricRevokeDirect) != direct+1 {
		t.Errorf("revoke counters: walked %d -> %d, direct %d -> %d, want one more direct",
			walked, ts.counterAt(1, MetricRevokeWalked), direct, ts.counterAt(1, MetricRevokeDirect))
	}
	// The writer answers for both kept copies itself; their holders
	// point at the writer and at nobody else.
	if !ts.lentTo(1, id, 0).Equal(r) || !ts.lentTo(1, id, 2).Equal(r) ||
		ts.lentCount(0, id) != 1 || ts.lentCount(2, id) != 1 ||
		!ts.lentTo(0, id, 1).Equal(r) || !ts.lentTo(2, id, 1).Equal(r) {
		t.Error("the writer is not on record for both kept copies, or their holders name others than the writer")
	}
	if err := verifyDirectory(managerViews(ts.managers, id), nil); err != nil {
		t.Fatal(err)
	}
	// Nobody read the refreshed copies: the next write removes them.
	ts.touch(t, 1, id, r, Write)
	for _, rank := range []int{0, 2} {
		if cov := ts.coverage(t, rank, id); !cov.IsEmpty() {
			t.Fatalf("rank %d still holds %v after a second write it never read", rank, cov)
		}
	}
	if ts.lentCount(1, id) != 0 || !ts.managers[1].ExclusivelyOwned(id, r) {
		t.Error("sharer records survive the removal of the copies they name")
	}
	if d := ts.sum(MetricLocates) - locates; d != 0 {
		t.Errorf("the two writes resolved %d regions, want none", d)
	}
	if err := VerifyIndex(ts.managers, id); err != nil {
		t.Fatal(err)
	}
	ts.noPins(t, id)
}

// TestMigrationInheritsSharers: a writer outside the root region copies
// the data from the old owner, evicts it and, with the drop reply,
// takes over the old owner's root role and sharer records — so it
// evicts the replica without looking for it.
func TestMigrationInheritsSharers(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 3, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := dataitem.Region(gr(0, 0, 8, 8))

	ts.touch(t, 0, id, r, Write)
	ts.touch(t, 1, id, r, Read)

	locates := ts.counterAt(2, MetricLocates)
	ts.touch(t, 2, id, r, Write)
	// One walk to find the data, one to find the root copy — which comes
	// with the record of rank 1's replica, so nothing is left to look for.
	if d := ts.counterAt(2, MetricLocates) - locates; d != 2 {
		t.Errorf("migrating write resolved %d times, want 2 (stage, find the root copy)", d)
	}
	if ts.counterAt(2, MetricRevokeWalked) != 1 {
		t.Errorf("revoke.walked at the new owner = %d, want 1", ts.counterAt(2, MetricRevokeWalked))
	}
	// The root copy is removed and hands its role over; the replica,
	// which was read, is held and refreshed.
	if cov := ts.coverage(t, 0, id); !cov.IsEmpty() {
		t.Fatalf("old owner still holds %v after the migration", cov)
	}
	if cov := ts.coverage(t, 1, id); !cov.Equal(r) {
		t.Fatalf("rank 1's replica was not kept: %v", cov)
	}
	if _, unrooted := ts.managers[2].sharersOf(0, id, r); !unrooted.IsEmpty() || !ts.lentTo(2, id, 1).Equal(r) {
		t.Error("new owner did not take over the root role and the record of the replica")
	}
	if ts.managers[0].ExclusivelyOwned(id, r) || ts.lentCount(0, id) != 1 || !ts.lentTo(0, id, 2).Equal(r) {
		t.Error("old owner kept its root region, or records other than that of its evictor")
	}
	// The new owner is the directory now: its next write is direct.
	ts.touch(t, 1, id, r, Read)
	ts.touch(t, 2, id, r, Write)
	if ts.counterAt(2, MetricRevokeWalked) != 1 || ts.counterAt(2, MetricRevokeDirect) != 1 {
		t.Errorf("second write at the new owner: walked %d, direct %d, want 1 and 1",
			ts.counterAt(2, MetricRevokeWalked), ts.counterAt(2, MetricRevokeDirect))
	}
	// And a third one, unread, leaves it the only copy.
	ts.touch(t, 2, id, r, Write)
	if cov := ts.coverage(t, 1, id); !cov.IsEmpty() {
		t.Fatalf("rank 1 still holds %v", cov)
	}
	if !ts.managers[2].ExclusivelyOwned(id, r) {
		t.Error("new owner does not own the migrated region exclusively")
	}
	ts.settle(t)
	ts.noPins(t, id)
}

// TestWriteRacingPinnedFetchEvictsNewReplica: rank 2's copy from rank
// 1's replica is still in flight — exported and pinned at rank 1, not
// yet inserted at rank 2 — when the owner writes. The owner's drop
// must wait at rank 1 for the pin, learn of rank 2 from the reply, and
// evict the replica rank 2 has inserted meanwhile — for real: no task
// at rank 2 has been granted it. Rank 1's copy, which was read, is held.
func TestWriteRacingPinnedFetchEvictsNewReplica(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 3, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := dataitem.Region(gr(0, 0, 8, 8))

	ts.touch(t, 0, id, r, Write)
	ts.touch(t, 1, id, r, Read)

	// Rank 2 runs the first half of a read staging from rank 1 by hand.
	m2 := ts.managers[2]
	var reply fetchReply
	if err := m2.loc.Call(1, methodFetch, &fetchArgs{Item: id, Region: r}, &reply, m2.dataOpt()); err != nil {
		t.Fatal(err)
	}
	if reply.PinToken == 0 {
		t.Fatal("fetch was not pinned")
	}

	const tok = 99
	done := make(chan error, 1)
	go func() { done <- ts.managers[0].Acquire(tok, []Requirement{{Item: id, Region: r, Mode: Write}}) }()
	select {
	case err := <-done:
		t.Fatalf("write completed while a copy of its region was in flight: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	// Second half: insert, report, unpin.
	if err := m2.insertLocal(id, reply.Part, reply.Data); err != nil {
		t.Fatal(err)
	}
	if err := m2.loc.Call(1, methodUnpin, &unpinArgs{Token: reply.PinToken}, nil, m2.ctlOpt()); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write never completed")
	}
	if err := CheckSystemInvariants(ts.managers, id); err != nil {
		t.Fatal(err)
	}
	if cov := ts.coverage(t, 2, id); !cov.IsEmpty() {
		t.Fatalf("rank 2 still holds %v after the owner's write", cov)
	}
	if n := ts.pinCount(1); n != 1 {
		t.Fatalf("%d pins at rank 1 during the owner's write, want the owner's", n)
	}
	ts.managers[0].Release(tok)
	ts.settle(t)
	if cov := ts.coverage(t, 1, id); !cov.Equal(r) {
		t.Fatalf("rank 1's replica was not kept: %v", cov)
	}
	if ts.counterAt(0, MetricRevokeWalked) != 0 {
		t.Error("the owner walked the index")
	}
	ts.noPins(t, id)
}

// TestContendingWritersGiveWay: the owner of a region and the holders
// of its replicas write it at the same time. All find their data in
// place and lock it; each then has to evict the others' copies. All
// but the lowest rank must give way — waiting for each other would end
// in the lock-wait timeout — and no increment may be lost.
func TestContendingWritersGiveWay(t *testing.T) {
	for _, ranks := range []int{2, 3} {
		t.Run(fmt.Sprintf("%d-ranks", ranks), func(t *testing.T) {
			typ := dataitem.NewGridType[int]("field", p(8, 8))
			ts := newTestSystem(t, ranks, typ)
			id, _ := ts.managers[0].CreateItem(typ)
			r := dataitem.Region(gr(0, 0, 8, 8))
			ts.touch(t, 0, id, r, Write)

			const rounds = 40
			for round := 0; round < rounds; round++ {
				// Whoever wrote last owns the region; the others copy it.
				for rank := 0; rank < ranks; rank++ {
					ts.touch(t, rank, id, r, Read)
				}
				errs := make(chan error, ranks)
				for rank := 0; rank < ranks; rank++ {
					go func(rank int) {
						m := ts.managers[rank]
						tok := uint64(1000 + ranks*round + rank)
						if err := m.Acquire(tok, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
							errs <- err
							return
						}
						frag, _ := m.Fragment(id)
						*frag.(*dataitem.GridFragment[int]).Ptr(p(1, 1))++
						m.Release(tok)
						errs <- nil
					}(rank)
				}
				for rank := 0; rank < ranks; rank++ {
					if err := <-errs; err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
				}
			}
			tok := uint64(1)
			if err := ts.managers[0].Acquire(tok, []Requirement{{Item: id, Region: r, Mode: Read}}); err != nil {
				t.Fatal(err)
			}
			frag, _ := ts.managers[0].Fragment(id)
			if got := frag.(*dataitem.GridFragment[int]).At(p(1, 1)); got != ranks*rounds {
				t.Fatalf("counter = %d after %d contended rounds, want %d", got, rounds, ranks*rounds)
			}
			ts.managers[0].Release(tok)
			ts.settle(t)
			counter := func(q region.Point) int {
				if q.Equal(p(1, 1)) {
					return ranks * rounds
				}
				return 0
			}
			if err := verifyDirectory(managerViews(ts.managers, id), counter); err != nil {
				t.Fatal(err)
			}
			ts.noPins(t, id)
		})
	}
}

// TestWriterStagedFromReplicaIsOnRecord: a writer stages its region
// from a replica, not from the owner, and is then overtaken by the
// owner's write. The owner knows only of the replica; the replica's
// record must lead it to the writer's copy, or that copy survives the
// owner's write with the old value and later replaces the new one.
func TestWriterStagedFromReplicaIsOnRecord(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 3, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := dataitem.Region(gr(0, 0, 8, 8))
	rq := Requirement{Item: id, Region: r, Mode: Write}
	write := func(rank, v int) {
		t.Helper()
		m := ts.managers[rank]
		tok := uint64(100 + v)
		if err := m.Acquire(tok, []Requirement{rq}); err != nil {
			t.Fatalf("write at rank %d: %v", rank, err)
		}
		if err := CheckSystemInvariants(ts.managers, id); err != nil {
			t.Fatalf("write at rank %d: %v", rank, err)
		}
		frag, _ := m.Fragment(id)
		frag.(*dataitem.GridFragment[int]).Set(p(1, 1), v)
		m.Release(tok)
	}

	write(1, 7)
	ts.touch(t, 0, id, r, Read)
	// Rank 2's resolution lists rank 0 first: that is where it copies from.
	if err := ts.managers[2].ensureLocal(rq, &waiter{}, 0); err != nil {
		t.Fatal(err)
	}
	if !ts.lentTo(0, id, 2).Equal(r) || !ts.lentTo(1, id, 2).IsEmpty() {
		t.Fatalf("rank 2 staged from rank 1 (lent %v), not from rank 0 (lent %v)", ts.lentTo(1, id, 2), ts.lentTo(0, id, 2))
	}

	walked, direct := ts.counterAt(1, MetricRevokeWalked), ts.counterAt(1, MetricRevokeDirect)
	write(1, 42)
	if w, d := ts.counterAt(1, MetricRevokeWalked)-walked, ts.counterAt(1, MetricRevokeDirect)-direct; w != 0 || d != 1 {
		t.Errorf("owner's write: %d walked, %d direct, want 0 and 1", w, d)
	}
	// Rank 2's copy was staged and never granted: it is removed. Rank 0's
	// was read: it is held, and has the owner's value once refreshed.
	if cov := ts.coverage(t, 2, id); !cov.IsEmpty() {
		t.Fatalf("rank 2 still holds %v after the owner's write", cov)
	}
	ts.settle(t)
	frag0, _ := ts.managers[0].Fragment(id)
	if got := frag0.(*dataitem.GridFragment[int]).At(p(1, 1)); got != 42 || !ts.coverage(t, 0, id).Equal(r) {
		t.Fatalf("rank 0's kept replica holds %d over %v, want 42 over %v", got, ts.coverage(t, 0, id), r)
	}

	// Rank 2 goes on with its acquisition and must see the owner's value.
	const tok = 5
	if err := ts.managers[2].Acquire(tok, []Requirement{rq}); err != nil {
		t.Fatal(err)
	}
	frag, _ := ts.managers[2].Fragment(id)
	if got := frag.(*dataitem.GridFragment[int]).At(p(1, 1)); got != 42 {
		t.Fatalf("rank 2 reads %d after the owner wrote 42", got)
	}
	ts.managers[2].Release(tok)
	if err := verifyDirectory(managerViews(ts.managers, id), nil); err != nil {
		t.Fatal(err)
	}
	if err := VerifyIndex(ts.managers, id); err != nil {
		t.Fatal(err)
	}
}

// TestStaleSharerCostsOneEmptyDrop: rank 0's replica of rank 1's
// region — staged, never granted, so removed for real — is evicted by a
// third writer before the owner is, so the record the owner hands over
// is stale. Chasing it costs one drop answered "nothing here" and no
// error.
func TestStaleSharerCostsOneEmptyDrop(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 3, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := dataitem.Region(gr(0, 0, 8, 8))

	ts.touch(t, 1, id, r, Write)
	if err := ts.managers[0].ensureLocal(Requirement{Item: id, Region: r, Mode: Read}, &waiter{}, 0); err != nil {
		t.Fatal(err)
	}

	calls := ts.tracedCalls()
	// Rank 2's walks list rank 0 first: it copies from the replica and
	// evicts it before the owner.
	ts.touch(t, 2, id, r, Write)
	got := calls()
	if got[methodFetch] != 1 || got[methodDrop] != 3 {
		t.Errorf("migrating write sent %d fetches and %d drops, want 1 and 3 (replica, owner, stale sharer)",
			got[methodFetch], got[methodDrop])
	}
	for _, rank := range []int{0, 1} {
		if cov := ts.coverage(t, rank, id); !cov.IsEmpty() {
			t.Fatalf("rank %d still holds %v", rank, cov)
		}
	}
	if !ts.managers[2].ExclusivelyOwned(id, r) {
		t.Error("writer does not own the region exclusively")
	}
	if err := VerifyIndex(ts.managers, id); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryDropsDirectory: RetractEpoch and ReleasePinsOf give up
// what a crash may have invalidated, and the next write finds the
// surviving replica the long way.
func TestRecoveryDropsDirectory(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 3, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := dataitem.Region(gr(0, 0, 8, 8))
	half := dataitem.Region(gr(0, 0, 4, 8))

	ts.touch(t, 0, id, r, Write)
	ts.touch(t, 1, id, half, Read)
	ts.touch(t, 2, id, r, Read)

	// A dead sharer's record goes, and with it the root status of what
	// it held: copies made from its copy were known only to it.
	ts.managers[0].ReleasePinsOf(1)
	if !ts.lentTo(0, id, 1).IsEmpty() {
		t.Fatal("dead sharer's record survives ReleasePinsOf")
	}
	if _, unrooted := ts.managers[0].sharersOf(0, id, half); !unrooted.Equal(half) {
		t.Fatal("region lent to a dead rank is still rooted")
	}
	if _, unrooted := ts.managers[0].sharersOf(0, id, r.Difference(half)); !unrooted.IsEmpty() {
		t.Fatal("ReleasePinsOf shrank the root region beyond the dead rank's share")
	}

	for _, m := range ts.managers {
		m.RetractEpoch(m.Epoch() + 1)
	}
	for rank := range ts.managers {
		if ts.lentCount(rank, id) != 0 {
			t.Fatalf("rank %d keeps sharer records across RetractEpoch", rank)
		}
	}
	if _, unrooted := ts.managers[0].sharersOf(0, id, r); !unrooted.Equal(r) {
		t.Fatal("root region survives RetractEpoch")
	}
	for _, m := range ts.managers {
		if err := m.Republish(); err != nil {
			t.Fatal(err)
		}
	}
	walked, direct := ts.counterAt(0, MetricRevokeWalked), ts.counterAt(0, MetricRevokeDirect)
	ts.touch(t, 0, id, r, Write)
	if w, d := ts.counterAt(0, MetricRevokeWalked)-walked, ts.counterAt(0, MetricRevokeDirect)-direct; w != 1 || d != 0 {
		t.Errorf("write after retraction: %d walked, %d direct, want 1 and 0", w, d)
	}
	for _, rank := range []int{1, 2} {
		if cov := ts.coverage(t, rank, id); !cov.IsEmpty() {
			t.Fatalf("rank %d still holds %v", rank, cov)
		}
	}
	if !ts.managers[0].ExclusivelyOwned(id, r) {
		t.Error("owner is not the directory again after its write")
	}
}

// TestWritePingPongTakesNoBackoff: two ranks alternately write-acquire
// one row of a grid whose halves they own. Each hand-over finds the
// previous holder through the sharer record the last drop left behind,
// and takes over the root role with that holder's drop reply: nothing
// is left to wait for, so no acquisition may reach the backoff of a
// walk that found no root copy — and the row's value must survive every
// migration.
func TestWritePingPongTakesNoBackoff(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 2, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	ts.touch(t, 0, id, gr(0, 0, 4, 8), Write)
	ts.touch(t, 1, id, gr(4, 0, 8, 8), Write)
	row := []Requirement{{Item: id, Region: gr(3, 0, 4, 8), Mode: Write}}

	const rounds = 200
	for i := 0; i < rounds; i++ {
		m := ts.managers[(i+1)%2]
		tok := uint64(1000 + i)
		if err := m.Acquire(tok, row); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		frag, err := m.Fragment(id)
		if err != nil {
			t.Fatal(err)
		}
		cell := frag.(*dataitem.GridFragment[int]).Ptr(p(3, 5))
		if *cell != i {
			t.Fatalf("round %d at rank %d: row holds %d, want %d", i, m.Rank(), *cell, i)
		}
		*cell++
		m.Release(tok)
	}
	if n := ts.sum(MetricRevokeBackoffs); n != 0 {
		t.Errorf("%d backoff sleeps in %d uncontended migrations, want 0", n, rounds)
	}
	// Past the first hand-over every revocation is a recorded sharer's.
	if w := ts.sum(MetricRevokeWalked); w > 1 {
		t.Errorf("%d migrations walked the index, want at most the first", w)
	}
	if err := VerifyIndex(ts.managers, id); err != nil {
		t.Fatal(err)
	}
}

// TestFetchForDeadRankTakesNoPin: a fetch served after its sender was
// marked dead — it may have waited out a lock meanwhile, and the dead
// rank's pins have been released by then — is refused instead of
// leaving a pin nobody will confirm in the way of every later writer.
func TestFetchForDeadRankTakesNoPin(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 3, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := dataitem.Region(gr(0, 0, 8, 8))
	ts.touch(t, 0, id, r, Write)

	ts.sys.Locality(0).SetPeer(2, runtime.Dead, 0)
	ts.managers[0].ReleasePinsOf(2)
	if _, err := ts.managers[0].handleFetch(2, &fetchArgs{Item: id, Region: r}); err == nil {
		t.Fatal("fetch on behalf of a dead rank was served")
	}
	if ts.lentCount(0, id) != 0 {
		t.Error("dead rank went on record as a sharer")
	}
	ts.touch(t, 0, id, r, Write) // would wait for the pin
}

// TestStagingFromADeadHostFailsAtOnce: a region whose only copy sits
// at a rank every survivor holds dead has no live host. Staging it fails
// at once with ErrPeerFailed naming the region, instead of waiting in
// "no progress" for the lock-wait bound; a lowered bound here makes the
// old wait show as a timeout, not ErrPeerFailed.
func TestStagingFromADeadHostFailsAtOnce(t *testing.T) {
	defer func(b time.Duration) { lockWaitBound = b }(lockWaitBound)
	lockWaitBound = 2 * time.Second
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 4, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := dataitem.Region(gr(0, 0, 8, 8))
	const holder, reader = 3, 0
	ts.touch(t, holder, id, r, Write)
	for rank := range 3 {
		ts.sys.Locality(rank).SetPeer(holder, runtime.Dead, 0)
	}
	err := ts.managers[reader].Acquire(1, []Requirement{{Item: id, Region: r, Mode: Read}})
	if !errors.Is(err, runtime.ErrPeerFailed) || !strings.Contains(err.Error(), fmt.Sprint(r)) {
		t.Fatalf("staging a region held only by a dead rank: err = %v, want ErrPeerFailed naming %v", err, r)
	}
	ts.managers[reader].Release(1)
}

// TestDropForDeadEvictorTakesNothing: a drop parked behind the holder's
// write lock is owed nothing once its sender is dead. Served when the
// lock goes, it would hand the only copy, and the root role with it, to
// a rank that no longer exists; instead the wait ends with an error as
// soon as ReleasePinsOf has run, and the holder keeps both.
func TestDropForDeadEvictorTakesNothing(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 3, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := dataitem.Region(gr(0, 0, 8, 8))
	const holder, evictor, tok = 2, 1, 5
	ts.touch(t, holder, id, r, Write)
	m := ts.managers[holder]
	if err := m.Acquire(tok, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	dropped := make(chan error, 1)
	go func() {
		_, err := m.handleDrop(evictor, &dropArgs{Item: id, Region: r})
		dropped <- err
	}()
	ts.awaitParked(t, holder, 1)
	ts.sys.Locality(holder).SetPeer(evictor, runtime.Dead, 0)
	m.ReleasePinsOf(evictor)
	select {
	case err := <-dropped:
		if err == nil {
			t.Error("the drop of a dead evictor was served")
		}
	case <-time.After(time.Second):
		t.Error("the drop of a dead evictor still waits 1s after ReleasePinsOf")
		m.Release(tok)
		<-dropped
	}
	m.Release(tok)
	if n := ts.pinCount(holder); n != 0 {
		t.Errorf("%d pins at the holder, want none", n)
	}
	if cov := ts.coverage(t, holder, id); !cov.Equal(r) {
		t.Errorf("the holder covers %v, want its whole copy %v", cov, r)
	}
	if _, unrooted := m.sharersOf(0, id, r); !unrooted.IsEmpty() {
		t.Errorf("the holder lost the root role of %v", unrooted)
	}
}

// TestRepublishSkipsDestroyedItem: a job may destroy its item while a
// recovery republishes, rank by rank. The report that meets the item
// gone at its parent's host has nothing to update; failing instead, it
// stopped the recovery short of the allocation sync, and every staging
// of a region lost with the dead rank spun until the lock-wait bound.
func TestRepublishSkipsDestroyedItem(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 2, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	ts.touch(t, 1, id, gr(0, 0, 8, 8), Write)
	// A DestroyItem half done: gone at rank 0, the index's root host.
	if _, err := ts.managers[0].handleDestroy(1, &destroyArgs{ID: id}); err != nil {
		t.Fatal(err)
	}
	if err := ts.managers[1].Republish(); err != nil {
		t.Fatalf("republish racing a destroy: %v", err)
	}
}

// TestRootClaimAcrossRetractionIsRefused: a reindex retracts rank by
// rank. A root claim granted by the root host after its retraction, to
// a rank whose own retraction then forgets the grant, left the host's
// account naming a root copy nobody held: every later write of the
// region walked, found no copy to evict and asked for the role in vain
// until the lock-wait bound.
func TestRootClaimAcrossRetractionIsRefused(t *testing.T) {
	defer func(b time.Duration) { lockWaitBound = b }(lockWaitBound)
	lockWaitBound = time.Second
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 2, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := dataitem.Region(gr(0, 0, 8, 8))
	ts.touch(t, 1, id, r, Write)

	ts.managers[0].RetractEpoch(1) // the root host has retracted, rank 1 not yet
	if granted, err := ts.managers[1].claim(id, r, false, true); err != nil || !granted.IsEmpty() {
		t.Errorf("root claim across a retraction: granted %v, err %v; want nothing", granted, err)
	}
	ts.managers[1].RetractEpoch(1)
	for _, m := range ts.managers {
		if err := m.Republish(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ts.managers[0].SyncAllocatedFromIndex(); err != nil {
		t.Fatal(err)
	}
	ts.touch(t, 1, id, r, Write)
	if !ts.managers[1].ExclusivelyOwned(id, r) {
		t.Error("the writer after the reindex holds no root role")
	}
}
