package sched

import (
	"math/rand"
	"sync"
	"testing"
	"time"

	"allscale/internal/dataitem"
	"allscale/internal/dim"
	"allscale/internal/region"
	"allscale/internal/runtime"
	"allscale/internal/wire"
)

func TestQueuedExecutionCompletesTaskTree(t *testing.T) {
	c := newCluster(t, 4, 2, &DefaultPolicy{ExtraDepth: 2})
	registerSum(c)
	c.start()
	fut, err := c.scheds[0].Spawn("sum", &sumRange{0, 2000})
	if err != nil {
		t.Fatal(err)
	}
	var got int64
	if err := fut.WaitInto(&got); err != nil {
		t.Fatal(err)
	}
	if want := int64(1999 * 2000 / 2); got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

// slowKind is a non-splittable task that takes a while, to create a
// stealable backlog at one locality.
func registerSlow(c *cluster, mu *sync.Mutex, ranks map[int]int) {
	c.registerAll(func(rank int) *Kind {
		return &Kind{
			Name: "slow",
			Process: func(ctx *Ctx) (any, error) {
				time.Sleep(3 * time.Millisecond)
				mu.Lock()
				ranks[ctx.Rank()]++
				mu.Unlock()
				return nil, nil
			},
		}
	})
}

func TestIdleLocalitiesStealWork(t *testing.T) {
	// LocalPolicy dumps every task on its origin (rank 0); the other
	// localities are idle and must steal.
	c := newCluster(t, 4, 1, &LocalPolicy{})
	var mu sync.Mutex
	ranks := map[int]int{}
	registerSlow(c, &mu, ranks)
	c.start()

	var futs []interface{ Wait() ([]byte, error) }
	for i := 0; i < 40; i++ {
		fut, err := c.scheds[0].Spawn("slow", struct{}{})
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
	mu.Lock()
	helpers := 0
	for rank, n := range ranks {
		if rank != 0 && n > 0 {
			helpers++
		}
	}
	mu.Unlock()
	if helpers == 0 {
		t.Fatal("no idle locality stole work")
	}
	if c.sumCounter(MetricSteals) == 0 {
		t.Fatal("steal counters report no steals")
	}
}

func TestQueueLenAndCounters(t *testing.T) {
	c := newCluster(t, 1, 1, &DefaultPolicy{})
	block := make(chan struct{})
	var started sync.WaitGroup
	started.Add(1)
	once := sync.Once{}
	c.registerAll(func(rank int) *Kind {
		return &Kind{
			Name: "gate",
			Process: func(ctx *Ctx) (any, error) {
				once.Do(started.Done)
				<-block
				return nil, nil
			},
		}
	})
	c.start()
	var futs []interface{ Wait() ([]byte, error) }
	for i := 0; i < 5; i++ {
		fut, err := c.scheds[0].Spawn("gate", struct{}{})
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, fut)
	}
	started.Wait() // one task occupies the single worker
	deadline := time.Now().Add(2 * time.Second)
	for c.scheds[0].QueueLen() != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("queue length = %d, want 4", c.scheds[0].QueueLen())
		}
		time.Sleep(time.Millisecond)
	}
	if load := c.scheds[0].Load(); load < 5 {
		t.Fatalf("load = %d, want >= 5", load)
	}
	close(block)
	for _, f := range futs {
		if _, err := f.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.scheds[0].QueueLen(); got != 0 {
		t.Fatalf("queue not drained: %d", got)
	}
}

func TestNewRejectsZeroWorkers(t *testing.T) {
	sys := runtime.NewSystem(1)
	defer sys.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("New with zero workers must panic")
		}
	}()
	New(sys.Locality(0), dim.New(sys.Locality(0), dataitem.NewRegistry()), &DefaultPolicy{}, 0)
}

// TestStealBatchingAccounting checks that remote steals move tasks in
// batches and that the steal counters and the steal_batch
// histogram agree: the victim's stolen-from count equals the sum of
// the thieves' stolen counts, and the number of steal grants (histogram
// observations) is strictly smaller than the number of stolen tasks —
// i.e. batching actually coalesced.
func TestStealBatchingAccounting(t *testing.T) {
	// One worker at the victim, blocked behind slow tasks, so a large
	// backlog accumulates for the idle rank to steal in batches.
	c := newCluster(t, 2, 1, &LocalPolicy{})
	var mu sync.Mutex
	ranks := map[int]int{}
	registerSlow(c, &mu, ranks)
	c.start()

	const n = 120
	var futs []interface{ Wait() ([]byte, error) }
	for i := 0; i < n; i++ {
		fut, err := c.scheds[0].Spawn("slow", struct{}{})
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

	stolenFrom0 := counter(c.scheds[0], MetricStolenFrom)
	stolen1 := counter(c.scheds[1], MetricSteals)
	if stolen1 == 0 {
		t.Fatal("idle rank stole nothing")
	}
	if stolen1 != stolenFrom0 {
		t.Fatalf("steal accounting mismatch: rank 1 stole %d, rank 0 reports %d stolen from it",
			stolen1, stolenFrom0)
	}
	hist := c.scheds[0].loc.Metrics().Histogram(MetricStealBatch).Snapshot()
	if hist.Count == 0 {
		t.Fatal("steal_batch histogram recorded no grants")
	}
	if hist.SumNanos != stolenFrom0 {
		t.Fatalf("steal_batch histogram sums %d tasks, counters say %d", hist.SumNanos, stolenFrom0)
	}
	if hist.Count >= stolenFrom0 {
		t.Fatalf("no batching: %d grants for %d stolen tasks", hist.Count, stolenFrom0)
	}
}

// TestStealCountersConcurrent reads the steal counters and the queue
// length while the queue is busy; meaningful under -race.
func TestStealCountersConcurrent(t *testing.T) {
	c := newCluster(t, 2, 1, &LocalPolicy{})
	var mu sync.Mutex
	ranks := map[int]int{}
	registerSlow(c, &mu, ranks)
	c.start()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for _, s := range c.scheds {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					counter(s, MetricSteals)
					s.QueueLen()
				}
			}
		}()
	}
	var futs []interface{ Wait() ([]byte, error) }
	for i := 0; i < 30; i++ {
		fut, err := c.scheds[0].Spawn("slow", struct{}{})
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
	wg.Wait()
}

// holdThieves keeps a rank from stealing — a draining rank does not —
// and returns once every one of its workers is parked and no call of
// its own is under way.
func holdThieves(s *Scheduler) {
	s.loc.SetPeer(s.Rank(), runtime.Draining, 0)
	for s.queue.idle.Load() != int64(s.queue.workers) || s.loc.PendingCalls() != 0 {
		time.Sleep(50 * time.Microsecond)
	}
}

// TestStealGrantRespectsData is the grant rule (steal.go): with rank
// 0's workers held, its queue holds tasks that write grid bands rank 0
// holds, tasks without requirements and one first-touch task whose band
// nobody holds. Rank 1's thieves get every task of the last two sorts
// and none of the first: the bound tasks wait for rank 0's workers and
// their bands never move.
func TestStealGrantRespectsData(t *testing.T) {
	typ := dataitem.NewGridType[int]("field", region.Point{16, 16})
	c := newCluster(t, 2, 2, &LocalPolicy{}, typ)
	started, release := registerGate(t, c)
	const bound, free, untouched = 3, 5, 3 // bands 0..2 held by rank 0, band 3 by nobody
	var item dim.ItemID
	var mu sync.Mutex
	ranOn := map[string][]int{}
	ran := func(kind string) func(*Ctx) (any, error) {
		return func(ctx *Ctx) (any, error) {
			mu.Lock()
			ranOn[kind] = append(ranOn[kind], ctx.Rank())
			mu.Unlock()
			return nil, nil
		}
	}
	c.registerAll(func(int) *Kind {
		return &Kind{
			Name: "band",
			Reqs: func(args []byte) []dim.Requirement {
				var a bandArgs
				wire.Decode(args, &a)
				return []dim.Requirement{{Item: item, Region: bandRegion(a.Band), Mode: dim.Write}}
			},
			Process: ran("band"),
		}
	})
	c.registerAll(func(int) *Kind { return &Kind{Name: "free", Process: ran("free")} })
	c.start()
	s0, s1 := c.scheds[0], c.scheds[1]
	var err error
	if item, err = s0.Manager().CreateItem(typ); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < bound; b++ {
		if err := s0.Manager().Acquire(uint64(900+b), []dim.Requirement{
			{Item: item, Region: bandRegion(b), Mode: dim.Write},
		}); err != nil {
			t.Fatal(err)
		}
		s0.Manager().Release(uint64(900 + b))
	}

	holdThieves(s1)
	occupyWorkers(t, s0, started)
	var boundFuts, stealable []*runtime.Future
	spawn := func(into *[]*runtime.Future, kind string, args any) {
		t.Helper()
		fut, err := s0.Spawn(kind, args)
		if err != nil {
			t.Fatal(err)
		}
		*into = append(*into, fut)
	}
	for b := 0; b < bound; b++ {
		spawn(&boundFuts, "band", &bandArgs{Band: b})
	}
	for i := 0; i < free; i++ {
		spawn(&stealable, "free", struct{}{})
	}
	spawn(&stealable, "band", &bandArgs{Band: untouched})
	checkQueued(t, s0, bound+free+1)

	// Rank 0's workers stay held: only rank 1 can run anything.
	s1.loc.SetPeer(s1.Rank(), runtime.Member, 0)
	for _, fut := range stealable {
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// Let the thieves come round again, for what is left.
	attempts := s1.stats.stealAttempts.Value()
	for s1.stats.stealAttempts.Value() < attempts+3 {
		time.Sleep(50 * time.Microsecond)
	}
	holdThieves(s1)
	checkQueued(t, s0, bound)
	if stolen := counter(s1, MetricSteals); stolen != free+1 {
		t.Fatalf("rank 1 stole %d tasks, want the %d that are bound to nothing", stolen, free+1)
	}
	release()
	for _, fut := range boundFuts {
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, rank := range ranOn["free"] {
		if rank != 1 {
			t.Fatalf("requirement-free tasks ran on ranks %v, want rank 1 only", ranOn["free"])
		}
	}
	if got := ranOn["band"]; len(got) != bound+1 || got[0] != 1 {
		t.Fatalf("band tasks ran on ranks %v, want the first-touch one on rank 1 and then %d on rank 0", got, bound)
	}
	for _, rank := range ranOn["band"][1:] {
		if rank != 0 {
			t.Fatalf("band tasks ran on ranks %v: a task left the rank that holds its band", ranOn["band"])
		}
	}
	held := dataitem.GridRegionFromTo(region.Point{0, 0}, region.Point{4 * bound, 16})
	cov0, _ := s0.Manager().Coverage(item)
	cov1, _ := s1.Manager().Coverage(item)
	if !held.Difference(cov0).IsEmpty() || !cov1.Intersect(held).IsEmpty() {
		t.Fatalf("bands moved: rank 0 covers %v, rank 1 covers %v", cov0, cov1)
	}
}

// TestStealGrantLeavesWokenWorkersTask is the surplus half of the grant
// rule: a task a parked worker has been woken for is not spare. The
// test enqueues without the wake-up, so that the worker provably has
// not popped the task when the probe arrives.
func TestStealGrantLeavesWokenWorkersTask(t *testing.T) {
	c := newCluster(t, 1, 1, &DefaultPolicy{})
	registerSum(c)
	c.start()
	s := c.scheds[0]
	for s.queue.idle.Load() != 1 {
		time.Sleep(50 * time.Microsecond)
	}
	qt := jobTask(s, 0, 0)
	qt.spec.Args, _ = wire.Encode(&sumRange{0, 3})
	fut := &qt.fut
	s.queue.deques[0].pushTail(qt)
	s.queued.Add(1)
	if batch := s.stealForRemote(remoteStealCap); len(batch) != 0 {
		t.Fatalf("a probe was granted %d task(s) queued for the parked worker", len(batch))
	}
	s.queue.wakeIdle()
	var sum int64
	if err := fut.WaitInto(&sum); err != nil || sum != 3 {
		t.Fatalf("the worker's task: sum %d, err %v", sum, err)
	}
}

// TestLocalWorkDoesNotProbe is the probe rule: a worker that keeps
// finding local work, one task at a time, does not ask its peer each
// time it runs dry — the parent commit did, one probe per task.
func TestLocalWorkDoesNotProbe(t *testing.T) {
	c := newCluster(t, 2, 1, &LocalPolicy{})
	registerSum(c)
	c.start()
	const k = 1000
	for i := 0; i < k; i++ {
		fut, err := c.scheds[0].Spawn("sum", &sumRange{0, 3})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// The peer has nothing to do but ask, once per backoff period.
	t.Logf("%d dependent tasks: rank 0 probed %d times, idle rank 1 %d times", k,
		c.scheds[0].stats.stealAttempts.Value(), c.scheds[1].stats.stealAttempts.Value())
	if got := c.scheds[0].stats.stealAttempts.Value(); got > k/10 {
		t.Fatalf("rank 0 probed its peer %d times while running %d local tasks, want at most %d", got, k, k/10)
	}
}

// TestStealVictimIsPlaceable: a thief draws its victim among the ranks
// that can have work. With one rank of three latent the parent of PR 18
// spent every other round on it. A probe has no return value: that the
// loaded peer was asked shows in what arrives at the thief.
func TestStealVictimIsPlaceable(t *testing.T) {
	c := newCluster(t, 3, 1, &LocalPolicy{})
	registerSum(c)
	started, release := registerGate(t, c)
	for _, s := range c.scheds {
		s.loc.SetPeer(2, runtime.Latent, 0)
	}
	c.start()
	s0, s1 := c.scheds[0], c.scheds[1]
	// Both members' workers are held: rank 0's so that its queue keeps
	// what is spawned there, rank 1's so that only this test probes.
	holdThieves(s1)
	occupyWorkers(t, s0, started)
	s1.loc.SetPeer(s1.Rank(), runtime.Member, 0)
	occupyWorkers(t, s1, started)
	attempts := s1.stats.stealAttempts.Value() // rank 1's worker may have asked once on its way into the gate
	rng := rand.New(rand.NewSource(1))
	var futs []*runtime.Future
	for probe := 1; probe <= 16; probe++ {
		futs = append(futs, spawnLeaves(t, s0, 2, 0, 0)...)
		before := counter(s1, MetricSteals)
		s1.probePeer(rng)
		waitFor(t, "a grant: the only loaded peer was not asked", func() bool { return counter(s1, MetricSteals) > before })
	}
	if got := s1.stats.stealAttempts.Value() - attempts; got != 16 {
		t.Fatalf("%d steal attempts for 16 probes", got)
	}
	release()
	for _, fut := range futs {
		if _, err := fut.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}
