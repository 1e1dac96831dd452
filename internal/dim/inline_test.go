package dim

import (
	"testing"
	"time"

	"allscale/internal/dataitem"
	"allscale/internal/runtime"
)

// dim.unpin is served in frame order, on the goroutine that delivered it
// (runtime.HandleInline, DESIGN.md §6d "Served in frame order"): what it
// would wait for leaves from a goroutine of its own.

// writePin returns the token of the write-mode pin rank holds on id.
func (ts *testSystem) writePin(t *testing.T, rank int, id ItemID) uint64 {
	t.Helper()
	m := ts.managers[rank]
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.items[id].locks {
		if e.pin != noPin && e.mode == Write {
			return e.token
		}
	}
	t.Fatalf("rank %d holds no write-mode pin on %v", rank, id)
	return 0
}

// TestInlineHandsOffLostPartReport: a write-mode pin that ends without
// its refresh leaves its part stale, and the holder reports the loss to
// the index — an awaited dim.report, whose reply comes back on the link
// the unpin came in on. Sent from the delivery goroutine, the report
// would wait for a frame only that goroutine delivers, and a later call
// on the link would wait with it, until the report's deadline.
func TestInlineHandsOffLostPartReport(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", p(8, 8))
	ts := newTestSystem(t, 2, typ)
	for rank := range ts.managers {
		// A report stuck behind its own reply fails after 3 s, not 30.
		ts.sys.Locality(rank).SetCallProfile(runtime.CallProfile{Control: runtime.CallSpec{Deadline: 3 * time.Second}})
	}
	ts.sys.Locality(1).Handle("test.ping", func(int, []byte) ([]byte, error) { return nil, nil })
	id, _ := ts.managers[0].CreateItem(typ)
	r := gr(0, 0, 8, 8)
	ts.write(t, 0, id, r, 1)
	ts.touch(t, 1, id, r, Read)
	// Rank 0 writes: its drop keeps rank 1's replica under a write-mode pin.
	const writer = 1 << 40
	if err := ts.managers[0].Acquire(writer, []Requirement{{Item: id, Region: r, Mode: Write}}); err != nil {
		t.Fatal(err)
	}
	pin := ts.writePin(t, 1, id)
	// The pin ends without a refresh: rank 1 reports its replica lost to
	// the index node rank 0 hosts. A call behind the unpin must not wait
	// for that report.
	loc := ts.sys.Locality(0)
	loc.Notify(1, methodUnpin, &unpinArgs{Token: pin})
	done := make(chan error, 1)
	go func() { done <- loc.Call(1, "test.ping", struct{}{}, nil) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("a call behind the unpin still waits after 1 s: the lost part's report holds the delivery goroutine")
	}
	ts.settle(t)
	if cov := ts.coverage(t, 1, id); !cov.IsEmpty() {
		t.Fatalf("rank 1 still holds %v after its pin ended without a refresh", cov)
	}
	ts.managers[0].Release(writer)
	ts.settle(t)
	if err := CheckSystemInvariants(ts.managers, id); err != nil {
		t.Fatal(err)
	}
	ts.noPins(t, id)
}
