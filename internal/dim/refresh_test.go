package dim

import (
	"testing"
	"time"

	"allscale/internal/chaos"
	"allscale/internal/dataitem"
	"allscale/internal/runtime"
	"allscale/internal/transport"
)

// Keep-and-refresh (DESIGN.md §6f): a replica in use outlives a write
// to its region elsewhere — locked where it is for the duration, then
// overwritten with the writer's result — instead of being removed and
// fetched again.

// cellAt returns the address of one grid cell in rank's fragment.
func (ts *testSystem) cellAt(rank int, id ItemID, x, y int) *int {
	frag, _ := ts.managers[rank].Fragment(id)
	return frag.(*dataitem.GridFragment[int]).Ptr(p(x, y))
}

// write acquires r for writing at rank, stores v in cell (1,1) and
// releases.
func (ts *testSystem) write(t *testing.T, rank int, id ItemID, r dataitem.Region, v int) {
	t.Helper()
	tok := uint64(time.Now().UnixNano())
	if err := ts.managers[rank].Acquire(tok, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
		t.Fatalf("write of %v at rank %d: %v", r, rank, err)
	}
	*ts.cellAt(rank, id, 1, 1) = v
	ts.managers[rank].Release(tok)
}

// TestUnreadReplicaFallsBackToInvalidate: the sharer read once, the
// owner writes three times. The first write refreshes the replica; the
// second finds it unread since and removes it; the third has nobody to
// talk to. Write-mostly data pays one wasted refresh, then nothing.
func TestUnreadReplicaFallsBackToInvalidate(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 2, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := dataitem.Region(gr(0, 0, 8, 8))
	ts.write(t, 0, id, r, 1)
	ts.touch(t, 1, id, r, Read)

	calls := ts.tracedCalls()
	ts.write(t, 0, id, r, 2)
	ts.settle(t)
	if got := calls(); got[methodDrop] != 1 || got[methodUnpin] != 1 || len(got) != 2 {
		t.Errorf("first write: calls %v, want one drop and one unpin", got)
	}
	if k, s, b := ts.sum(MetricDropKept), ts.sum(MetricRefreshSent), ts.sum(MetricRefreshBytes); k != 1 || s != 1 || b == 0 {
		t.Errorf("first write: %d kept, %d refreshes of %d bytes, want 1, 1 and some", k, s, b)
	}
	if got := *ts.cellAt(1, id, 1, 1); got != 2 || !ts.coverage(t, 1, id).Equal(r) {
		t.Fatalf("sharer holds %d over %v after the first write, want 2 over %v", got, ts.coverage(t, 1, id), r)
	}

	ts.write(t, 0, id, r, 3)
	ts.settle(t)
	if got := calls(); got[methodDrop] != 2 || got[methodUnpin] != 1 {
		t.Errorf("second write: calls so far %v, want a second drop and no second unpin", got)
	}
	if k, e := ts.sum(MetricDropKept), ts.sum(MetricDropEvicted); k != 1 || e != 1 {
		t.Errorf("second write: %d kept, %d evicted in all, want 1 and 1", k, e)
	}
	if cov := ts.coverage(t, 1, id); !cov.IsEmpty() {
		t.Fatalf("replica unread since its refresh survived the second write: %v", cov)
	}

	before := calls()
	ts.write(t, 0, id, r, 4)
	ts.settle(t)
	after := calls()
	for method, n := range after {
		if n != before[method] {
			t.Errorf("third write: %d %s calls, want no traffic at all", n-before[method], method)
		}
	}
	// The ex-sharer comes back for the data the ordinary way.
	ts.touch(t, 1, id, r, Read)
	if got := *ts.cellAt(1, id, 1, 1); got != 4 {
		t.Fatalf("sharer reads %d after three writes, want 4", got)
	}
	ts.settle(t)
	ts.noPins(t, id)
}

// TestKeepsOnlyThePartThatWasRead: the sharer copied two rows and went
// on reading one of them. A write to both keeps that one and removes
// the other — one flag per item would refresh a row nobody reads for
// ever after a rebalance has moved the boundary.
func TestKeepsOnlyThePartThatWasRead(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 2, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := dataitem.Region(gr(0, 0, 8, 8))
	rows := dataitem.Region(gr(0, 0, 2, 8))
	row0, row1 := dataitem.Region(gr(0, 0, 1, 8)), dataitem.Region(gr(1, 0, 2, 8))
	ts.write(t, 0, id, r, 1)
	ts.touch(t, 1, id, rows, Read)
	ts.write(t, 0, id, r, 2) // both rows refreshed
	ts.touch(t, 1, id, row1, Read)
	ts.write(t, 0, id, r, 3)
	ts.settle(t)
	if cov := ts.coverage(t, 1, id); !cov.Equal(row1) {
		t.Fatalf("sharer holds %v, want only the row it read since the last refresh, %v", cov, row1)
	}
	if got := *ts.cellAt(1, id, 1, 1); got != 3 {
		t.Fatalf("kept row holds %d, want 3", got)
	}
	if !ts.lentTo(0, id, 1).Equal(row1) {
		t.Errorf("owner has %v on record for the sharer, want %v", ts.lentTo(0, id, 1), row1)
	}
	if err := VerifyIndex(ts.managers, id); err != nil {
		t.Fatal(err)
	}
	ts.touch(t, 1, id, row0, Read)
	if err := verifyDirectory(managerViews(ts.managers, id), nil); err != nil {
		t.Fatal(err)
	}
	ts.settle(t)
	ts.noPins(t, id)
}

// TestWriterDeathDropsPinnedReplica: the writer dies between its drop
// and its refresh, with a reader parked behind the pin on the stale
// bytes. Releasing the dead rank's pins must remove the part before it
// wakes the reader, which then stages anew — here, the only current
// copy having died with the writer, what the recovery sequence leaves:
// a fresh first-touch allocation — and never returns the old value, nor
// sits out the lock-wait timeout.
func TestWriterDeathDropsPinnedReplica(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 3, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := dataitem.Region(gr(0, 0, 8, 8))
	const writer, sharer = 2, 1
	ts.write(t, writer, id, r, 7)
	ts.touch(t, sharer, id, r, Read)

	const tok = 50
	if err := ts.managers[writer].Acquire(tok, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	*ts.cellAt(writer, id, 1, 1) = 8 // the sharer's 7 is stale from here on
	type result struct {
		v   int
		err error
	}
	read := make(chan result, 1)
	go func() {
		err := ts.managers[sharer].Acquire(60, []Requirement{{Item: id, Region: r, Mode: Read}})
		res := result{err: err}
		if err == nil {
			res.v = *ts.cellAt(sharer, id, 1, 1)
			ts.managers[sharer].Release(60)
		}
		read <- res
	}()
	select {
	case res := <-read:
		t.Fatalf("read behind the writer's pin returned early: %+v", res)
	case <-time.After(100 * time.Millisecond):
	}

	// What the recovery coordinator does on a death (without a
	// checkpoint to restore from).
	start := time.Now()
	survivors := []int{0, sharer}
	for _, rank := range survivors {
		ts.sys.Locality(rank).SetPeer(writer, runtime.Dead, 0)
		ts.managers[rank].ReleasePinsOf(writer)
	}
	for _, rank := range survivors {
		ts.managers[rank].RetractEpoch(1)
	}
	for _, rank := range survivors {
		if err := ts.managers[rank].Republish(); err != nil {
			t.Fatal(err)
		}
	}
	if err := ts.managers[0].SyncAllocatedFromIndex(); err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-read:
		if res.err == nil && res.v == 7 {
			t.Fatal("parked reader observed the stale value")
		}
		t.Logf("parked reader returned after %v: value %d, err %v", time.Since(start), res.v, res.err)
	case <-time.After(2 * time.Second):
		t.Fatal("parked reader still waiting 2s after the writer's pins were released")
	}
	if n := ts.pinCount(sharer); n != 0 {
		t.Errorf("%d pins left at the sharer", n)
	}
}

// TestRefreshWithoutPinInstallsNothing: the pin a refresh was meant
// for is gone — released by recovery while the writer, only presumed
// dead, went on to finish. The token is the gate: nothing is installed
// over whatever the sharer holds now.
func TestRefreshWithoutPinInstallsNothing(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 2, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := dataitem.Region(gr(0, 0, 8, 8))
	const writer, sharer = 0, 1
	ts.write(t, writer, id, r, 7)
	ts.touch(t, sharer, id, r, Read)
	const tok = 50
	if err := ts.managers[writer].Acquire(tok, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	*ts.cellAt(writer, id, 1, 1) = 8
	ts.managers[sharer].ReleasePinsOf(writer)
	if cov := ts.coverage(t, sharer, id); !cov.IsEmpty() {
		t.Fatalf("stale replica still in place: %v", cov)
	}
	ts.managers[writer].Release(tok)
	ts.settle(t)
	if n := ts.counterAt(sharer, MetricRefreshStale); n != 1 {
		t.Errorf("refresh.stale = %d, want 1", n)
	}
	if cov := ts.coverage(t, sharer, id); !cov.IsEmpty() {
		t.Errorf("a refresh without a pin installed %v", cov)
	}
	if err := VerifyIndex(ts.managers, id); err != nil {
		t.Fatal(err)
	}
	ts.noPins(t, id)
}

// TestOwnPinIsNotAContender: handlers run on pooled goroutines, so the
// drop of a writer's next acquisition may be served before the unpin of
// its previous one. The pin it meets is its own write lock: it must
// wait for it like for a reader — also when the writer outranks the
// sharer, where a write lock proper would turn it away.
func TestOwnPinIsNotAContender(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 2, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := dataitem.Region(gr(0, 0, 8, 8))
	const writer, sharer = 1, 0
	ts.write(t, writer, id, r, 1)
	ts.touch(t, sharer, id, r, Read)

	// First acquisition, up to the point where Release would refresh.
	const tok = 70
	if err := ts.managers[writer].Acquire(tok, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	// The next acquisition's drop overtakes the unpin.
	type result struct {
		reply *dropReply
		err   error
	}
	dropped := make(chan result, 1)
	go func() {
		reply, err := ts.managers[sharer].handleDrop(writer, &dropArgs{Item: id, Region: r})
		dropped <- result{reply, err}
	}()
	select {
	case res := <-dropped:
		t.Fatalf("drop behind the writer's own pin returned early: %+v, %v", res.reply, res.err)
	case <-time.After(100 * time.Millisecond):
	}
	*ts.cellAt(writer, id, 1, 1) = 2
	ts.managers[writer].Release(tok)
	select {
	case res := <-dropped:
		if res.err != nil {
			t.Fatal(res.err)
		}
		if res.reply.Contended {
			t.Fatal("a writer was turned away by its own pin")
		}
		if res.reply.PinToken != 0 {
			t.Error("replica unread since its refresh was kept")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drop never served after the unpin")
	}
	ts.settle(t)
	ts.noPins(t, id)
}

// TestPinRanksAsItsWriter: to a third writer, the pin a sharer holds for
// writer W is W's write lock. A higher rank is turned away — W may be
// waiting at that rank's own locked copy, which only giving way
// unblocks — and a lower rank waits, because W will be turned away
// there.
func TestPinRanksAsItsWriter(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 3, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := dataitem.Region(gr(0, 0, 8, 8))
	const writer = 1
	ts.write(t, writer, id, r, 1)
	for _, sharer := range []int{0, 2} {
		ts.touch(t, sharer, id, r, Read)
	}
	const tok = 80
	if err := ts.managers[writer].Acquire(tok, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	if ts.pinCount(0) != 1 || ts.pinCount(2) != 1 {
		t.Fatalf("pins at the sharers: %d and %d, want 1 and 1", ts.pinCount(0), ts.pinCount(2))
	}
	// Rank 2 > writer meets the writer's pin at rank 0.
	reply, err := ts.managers[0].handleDrop(2, &dropArgs{Item: id, Region: r})
	if err != nil {
		t.Fatal(err)
	}
	if !reply.Contended {
		t.Fatal("a higher rank was not turned away by a lower writer's pin")
	}
	// Rank 0 < writer meets it at rank 2.
	dropped := make(chan *dropReply, 1)
	go func() {
		reply, err := ts.managers[2].handleDrop(0, &dropArgs{Item: id, Region: r})
		if err != nil {
			t.Error(err)
		}
		dropped <- reply
	}()
	select {
	case reply := <-dropped:
		t.Fatalf("a lower rank did not wait behind a higher writer's pin: %+v", reply)
	case <-time.After(100 * time.Millisecond):
	}
	ts.managers[writer].Release(tok)
	select {
	case reply := <-dropped:
		if reply == nil || reply.Contended {
			t.Fatalf("drop after the refresh: %+v", reply)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drop never served after the refresh")
	}
	ts.settle(t)
	if n := ts.pinCount(0) + ts.pinCount(2); n != 0 {
		t.Errorf("%d pins left at the sharers", n)
	}
}

// TestRefreshIsExactForSparseFragments: a map replica is refreshed
// bucket by bucket — a pair the writer deleted goes at the sharer too,
// and a bucket the writer emptied altogether travels as an empty bucket,
// so the replica keeps covering it, without its old pairs.
func TestRefreshIsExactForSparseFragments(t *testing.T) {
	typ := dataitem.NewMapType[int, int]("kv", 4)
	ts := newTestSystem(t, 2, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	full := typ.FullRegion()
	frag := func(rank int) *dataitem.MapFragment[int, int] {
		f, _ := ts.managers[rank].Fragment(id)
		return f.(*dataitem.MapFragment[int, int])
	}
	update := func(fn func(m *dataitem.MapFragment[int, int])) {
		t.Helper()
		tok := uint64(time.Now().UnixNano())
		if err := ts.managers[0].Acquire(tok, []Requirement{{Item: id, Region: full, Mode: Write}}); err != nil {
			t.Fatal(err)
		}
		fn(frag(0))
		ts.managers[0].Release(tok)
		ts.settle(t)
	}
	const keys = 32
	update(func(m *dataitem.MapFragment[int, int]) {
		for k := 0; k < keys; k++ {
			m.Put(k, 1)
		}
	})
	ts.touch(t, 1, id, full, Read)
	// Delete one pair of bucket 0, and all of bucket 1.
	deleted := map[int]bool{}
	update(func(m *dataitem.MapFragment[int, int]) {
		for k := 0; k < keys; k++ {
			if b := typ.BucketOf(k); b == 1 || b == 0 && len(deleted) == 0 {
				m.Delete(k)
				deleted[k] = true
			} else {
				m.Put(k, 2)
			}
		}
	})
	if ts.sum(MetricDropKept) != 1 {
		t.Fatalf("replica was not kept: %d", ts.sum(MetricDropKept))
	}
	if cov := ts.coverage(t, 1, id); !cov.Equal(full) {
		t.Errorf("sharer covers %v, want the whole item", cov)
	}
	ts.touch(t, 1, id, full, Read)
	for k := 0; k < keys; k++ {
		v, ok := frag(1).Get(k)
		if deleted[k] && ok {
			t.Errorf("key %d, deleted by the writer, reads %d at the sharer", k, v)
		}
		if !deleted[k] && (!ok || v != 2) {
			t.Errorf("key %d reads %d,%v at the sharer, want 2", k, v, ok)
		}
	}
	if err := VerifyIndex(ts.managers, id); err != nil {
		t.Fatal(err)
	}
	ts.settle(t)
	ts.noPins(t, id)
}

// chaosManagers builds n managers over the in-process fabric wrapped in
// a seeded lossy, duplicating, delaying chaos layer, with retry windows
// tight enough that a dropped frame costs milliseconds.
func chaosManagers(t *testing.T, n int, seed int64, typ dataitem.Type) []*Manager {
	t.Helper()
	ctl := chaos.NewController()
	fab := transport.NewFabric(n)
	eps := make([]transport.Endpoint, n)
	for i := 0; i < n; i++ {
		eps[i] = chaos.Wrap(fab.Endpoint(i), ctl, chaos.Config{
			Seed:     seed + int64(i),
			Drop:     0.02,
			Dup:      0.02,
			Delay:    0.2,
			MaxDelay: time.Millisecond,
		})
	}
	sys := runtime.NewSystemOver(eps)
	t.Cleanup(func() {
		sys.Close()
		fab.Close()
	})
	calls := runtime.CallProfile{
		Control: runtime.CallSpec{Deadline: 5 * time.Second},
		Data:    runtime.CallSpec{Deadline: 10 * time.Second},
	}
	ms := make([]*Manager, n)
	for i := 0; i < n; i++ {
		sys.Locality(i).SetCallProfile(calls)
		reg := dataitem.NewRegistry()
		reg.MustRegister(typ)
		ms[i] = New(sys.Locality(i), reg)
	}
	fab.Start()
	return ms
}

// TestRefreshUnderChaos: the owner rewrites a region two sharers keep
// reading, over a fabric that drops, duplicates and delays frames — the
// refreshes among them. Every read must see the value of the write
// before it, and when the dust settles no pin is left anywhere.
func TestRefreshUnderChaos(t *testing.T) {
	const n, rounds = 3, 60
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ms := chaosManagers(t, n, 77, typ)
	id, err := ms[0].CreateItem(typ)
	if err != nil {
		t.Fatal(err)
	}
	r := dataitem.Region(gr(0, 0, 8, 8))
	tok := uint64(0)
	cell := func(rank int) *int {
		frag, _ := ms[rank].Fragment(id)
		return frag.(*dataitem.GridFragment[int]).Ptr(p(1, 1))
	}
	for round := 1; round <= rounds; round++ {
		tok++
		if err := ms[0].Acquire(tok, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
			t.Fatalf("round %d: write: %v", round, err)
		}
		*cell(0) = round
		ms[0].Release(tok)
		for rank := 1; rank < n; rank++ {
			tok++
			if err := ms[rank].Acquire(tok, []Requirement{{Item: id, Region: r, Mode: Read}}); err != nil {
				t.Fatalf("round %d: read at %d: %v", round, rank, err)
			}
			if got := *cell(rank); got != round {
				t.Fatalf("round %d: rank %d reads %d", round, rank, got)
			}
			ms[rank].Release(tok)
		}
	}
	var kept, refreshed uint64
	deadline := time.Now().Add(10 * time.Second)
	for rank, m := range ms {
		for m.loc.PendingCalls() != 0 || m.Pins() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("rank %d: %d calls pending, %d pins outstanding", rank, m.loc.PendingCalls(), m.Pins())
			}
			time.Sleep(time.Millisecond)
		}
		if rd, wr, _ := m.LockedRegions(id); len(rd)+len(wr) != 0 {
			t.Errorf("rank %d: locks left: read %v, write %v", rank, rd, wr)
		}
		kept += m.loc.Metrics().CounterValue(MetricDropKept)
		refreshed += m.loc.Metrics().CounterValue(MetricRefreshSent)
	}
	// Every round but the first finds both replicas in use.
	if want := uint64(2 * (rounds - 1)); kept != want || refreshed != want {
		t.Errorf("%d replicas kept, %d refreshed, want %d each", kept, refreshed, want)
	}
}

// TestRetractionForgetsKeptReplicas: a retraction removes the replica a
// sharer keeps for a writer, and the writer, still holding its lock,
// forgets it too. Remembered, it would hide the sharer's next copy from
// the writer's walk — the property test's seed 975 — and its refresh
// would find no pin.
func TestRetractionForgetsKeptReplicas(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 2, typ)
	id, _ := ts.managers[0].CreateItem(typ)
	r := dataitem.Region(gr(0, 0, 8, 8))
	ts.write(t, 0, id, r, 1)
	ts.touch(t, 1, id, r, Read)
	const tok = 7
	if err := ts.managers[0].Acquire(tok, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	if n := ts.pinCount(1); n != 1 {
		t.Fatalf("%d pins at the sharer, want the writer's", n)
	}
	for _, m := range ts.managers {
		m.RetractEpoch(1)
	}
	if cov := ts.coverage(t, 1, id); !cov.IsEmpty() {
		t.Errorf("the sharer still holds %v after the retraction", cov)
	}
	if n := ts.managers[0].Pins(); n != 0 {
		t.Errorf("the writer still owes %d refreshes after the retraction", n)
	}
	ts.managers[0].Release(tok)
	ts.settle(t)
	if n := ts.sum(MetricRefreshSent); n != 0 {
		t.Errorf("%d refreshes sent for a replica the retraction removed", n)
	}
}
