package sched

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"allscale/internal/metrics"
	"allscale/internal/runtime"
)

func testDeque() *deque {
	return newDeque(metrics.NewRegistry().Gauge("test.depth"))
}

// TestDequeOwnerLIFOThiefFIFO checks the deque's two access orders and
// that no task is lost or duplicated across the extraction paths
// (owner pop, thief steal, shutdown drain), including through a ring
// growth.
func TestDequeOwnerLIFOThiefFIFO(t *testing.T) {
	d := testDeque()
	const n = 200 // > dequeMinCap, forcing ring growth
	for i := 1; i <= n; i++ {
		d.pushTail(&task{spec: TaskSpec{ID: uint64(i)}})
	}
	if got := d.size.Load(); got != n {
		t.Fatalf("size = %d, want %d", got, n)
	}
	seen := make(map[uint64]int)
	// Thieves take the oldest tasks, FIFO.
	for i, qt := range d.stealHead(3) {
		if want := uint64(i + 1); qt.spec.ID != want {
			t.Fatalf("stolen[%d] = task %d, want %d (FIFO)", i, qt.spec.ID, want)
		}
		seen[qt.spec.ID]++
	}
	// The owner pops the newest first, LIFO.
	qt := d.popTail()
	if qt == nil || qt.spec.ID != n {
		t.Fatalf("popTail = %v, want task %d", qt, n)
	}
	seen[qt.spec.ID]++
	// A thief takes at most half of the occupancy, however large its
	// appetite.
	if got := d.size.Load(); got != n-4 {
		t.Fatalf("size = %d, want %d", got, n-4)
	}
	batch := d.stealHead(100000)
	if len(batch) != (n-4+1)/2 {
		t.Fatalf("stealHead took %d of %d, want half", len(batch), n-4)
	}
	for _, qt := range batch {
		seen[qt.spec.ID]++
	}
	for _, qt := range d.takeIf(math.MaxInt, nil) {
		seen[qt.spec.ID]++
	}
	if d.popTail() != nil {
		t.Fatal("popTail on drained deque succeeded")
	}
	if len(seen) != n {
		t.Fatalf("extracted %d distinct tasks, want %d", len(seen), n)
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("task %d extracted %d times", id, c)
		}
	}
}

// TestDequeConcurrentStress hammers one deque with a pushing/popping
// owner and three concurrent batch thieves (meaningful under -race)
// and asserts every task is extracted exactly once.
func TestDequeConcurrentStress(t *testing.T) {
	d := testDeque()
	const n = 20000
	var got [n + 1]atomic.Int32
	var extracted atomic.Int64
	take := func(tasks []*task) {
		for _, qt := range tasks {
			got[qt.spec.ID].Add(1)
			extracted.Add(1)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					take(d.stealHead(4))
				}
			}
		}()
	}
	for i := 1; i <= n; i++ {
		d.pushTail(&task{spec: TaskSpec{ID: uint64(i)}})
		if i%3 == 0 {
			if qt := d.popTail(); qt != nil {
				take([]*task{qt})
			}
		}
	}
	for {
		qt := d.popTail()
		if qt == nil {
			break
		}
		take([]*task{qt})
	}
	close(stop)
	wg.Wait()
	take(d.takeIf(math.MaxInt, nil))
	if extracted.Load() != n {
		t.Fatalf("extracted %d tasks, want %d", extracted.Load(), n)
	}
	for i := 1; i <= n; i++ {
		if c := got[i].Load(); c != 1 {
			t.Fatalf("task %d extracted %d times", i, c)
		}
	}
}

// TestQueueStressNoLossNoDup floods a queued 4-locality cluster from
// one rank so every tier moves tasks concurrently — owner pops,
// sibling-deque raids, remote batch steals — while a background
// goroutine hammers the introspection surface and repeatedly drains
// the recovery registries via HandleDeath for a rank that stays alive
// (its granted tasks still run there, so exactly-once must hold
// without respawns). Meaningful under -race.
func TestQueueStressNoLossNoDup(t *testing.T) {
	c := newCluster(t, 4, 2, &LocalPolicy{})
	const n = 4000
	var counts [n]atomic.Int32
	c.registerAll(func(rank int) *Kind {
		return &Kind{
			Name: "mark",
			Process: func(ctx *Ctx) (any, error) {
				var a benchArgs
				if err := ctx.Args(&a); err != nil {
					return nil, err
				}
				counts[a.V].Add(1)
				return nil, nil
			},
		}
	})
	c.start()

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, s := range c.scheds {
					s.QueueLen()
					counter(s, MetricSteals)
					s.Load()
				}
				c.scheds[0].HandleDeath(3)
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	futs := make([]*runtime.Future, 0, n)
	for i := 0; i < n; i++ {
		fut, err := c.scheds[0].Spawn("mark", &benchArgs{V: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	aux.Wait()
	for i := range counts {
		if got := counts[i].Load(); got != 1 {
			t.Fatalf("task %d executed %d times, want exactly once", i, got)
		}
	}
}
