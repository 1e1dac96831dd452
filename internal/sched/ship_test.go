package sched

import (
	"sync/atomic"
	"testing"
	"time"

	"allscale/internal/wire"
)

func waitCount(t *testing.T, c *atomic.Int64, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("count = %d, want %d", c.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRespawnedShipExecutesAgain is the regression test for the ship
// dedup conflating placement attempts with re-ships: a task shipped
// to a rank, stolen away, and lost with the thief is respawned by
// crash recovery — deterministic placement may well pick the first
// rank again. With the dedup keyed on bare spec IDs the receiver
// still remembered the first attempt and silently dropped the
// respawn, so the task never ran and its waiters hung. Keyed on the
// ship attempt (seq), the second placement must execute.
func TestRespawnedShipExecutesAgain(t *testing.T) {
	c := newCluster(t, 2, 2, &pinPolicy{target: 1})
	var count atomic.Int64
	c.registerAll(func(rank int) *Kind {
		return &Kind{
			Name:    "count",
			Process: func(ctx *Ctx) (any, error) { count.Add(1); return nil, nil },
		}
	})
	c.start()

	pid, _ := c.sys.Locality(0).NewPromise()
	args, err := wire.Encode(struct{}{})
	if err != nil {
		t.Fatal(err)
	}
	spec := TaskSpec{ID: 999, Kind: "count", Args: args, Origin: 0, Promise: pid}
	if err := c.scheds[0].Respawn(spec); err != nil {
		t.Fatal(err)
	}
	waitCount(t, &count, 1)
	// Second placement attempt of the SAME spec onto the same rank.
	if err := c.scheds[0].Respawn(spec); err != nil {
		t.Fatal(err)
	}
	waitCount(t, &count, 2)
}

// TestAdmitShipWatermark exercises the receiver half of the ship
// dedup protocol: per-seq admission, duplicate suppression, stale
// drop at/below the sender watermark, and seen-set pruning as the
// watermark advances.
func TestAdmitShipWatermark(t *testing.T) {
	c := newCluster(t, 2, 2, &DefaultPolicy{})
	s := c.scheds[1]
	if !s.admitShip(0, 5, 3) {
		t.Fatal("fresh seq above the watermark must be admitted")
	}
	if s.admitShip(0, 5, 3) {
		t.Fatal("duplicate seq must be dropped")
	}
	if s.admitShip(0, 2, 0) {
		t.Fatal("seq at/below a previously seen watermark must be dropped even if never admitted")
	}
	if !s.admitShip(0, 6, 5) {
		t.Fatal("next seq must be admitted")
	}
	st := &s.shipSeen[0]
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, kept := st.seen[5]; kept {
		t.Fatal("seen entry at/below the advanced watermark must be pruned")
	}
	if len(st.seen) != 1 {
		t.Fatalf("seen set holds %d entries, want 1", len(st.seen))
	}
}

// TestShipperAckFloor exercises the sender half: the watermark trails
// the minimum unresolved seq and catches up as ships resolve, in any
// order.
func TestShipperAckFloor(t *testing.T) {
	var sh shipper
	s1, a1 := sh.allocSeq()
	if s1 != 1 || a1 != 0 {
		t.Fatalf("first alloc = (%d, %d), want (1, 0)", s1, a1)
	}
	s2, a2 := sh.allocSeq()
	if s2 != 2 || a2 != 0 {
		t.Fatalf("second alloc = (%d, %d), want (2, 0)", s2, a2)
	}
	sh.resolve(s2)
	if f := sh.ackFloor(); f != 0 {
		t.Fatalf("ackFloor = %d with seq 1 unresolved, want 0", f)
	}
	sh.resolve(s1)
	if f := sh.ackFloor(); f != 2 {
		t.Fatalf("ackFloor = %d with all resolved, want 2", f)
	}
	if s3, a3 := sh.allocSeq(); s3 != 3 || a3 != 2 {
		t.Fatalf("third alloc = (%d, %d), want (3, 2)", s3, a3)
	}
}
