package recovery

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"allscale/internal/core"
	"allscale/internal/runtime"
	"allscale/internal/sched"
)

// TestThiefDeathRecoversGrantedTasks: a grant is a ship, so the tasks a
// victim has granted are on record like the ones it has placed. A thief
// is killed holding granted tasks it has not started (and one it has);
// they need no data, so each of them runs exactly once on the survivor. With
// the job cancelled first none runs: the cancel swept the victim's
// record of them, and every waiter is told so.
func TestThiefDeathRecoversGrantedTasks(t *testing.T) {
	t.Run("respawn", func(t *testing.T) { thiefDeath(t, false) })
	t.Run("cancelled", func(t *testing.T) { thiefDeath(t, true) })
}

func thiefDeath(t *testing.T, cancel bool) {
	const victim, thief, tasks, job = 0, 1, 8, 77
	sys := core.NewSystem(core.Config{Localities: 2, Workers: 1, Policy: &sched.LocalPolicy{}})
	// hold blocks the victim's worker, and whatever starts on the thief;
	// held names the rank each time.
	hold := make(chan struct{})
	held := make(chan int, tasks+1)
	var once sync.Once
	release := func() { once.Do(func() { close(hold) }) }
	var ran [tasks]atomic.Int64 // executions on the survivor
	sys.RegisterKind(func(rank int) *sched.Kind {
		return &sched.Kind{Name: "grant.hold", Process: func(*sched.Ctx) (any, error) {
			held <- rank
			<-hold
			return nil, nil
		}}
	})
	sys.RegisterKind(func(rank int) *sched.Kind {
		return &sched.Kind{Name: "grant.work", Process: func(ctx *sched.Ctx) (any, error) {
			if rank == thief {
				held <- rank
				<-hold
				return nil, nil
			}
			var i int
			if err := ctx.Args(&i); err != nil {
				return nil, err
			}
			ran[i].Add(1)
			return i, nil
		}}
	})
	sys.Start()
	defer sys.Close()
	defer release()
	rec := Attach(sys, Options{})

	// The thief stays out (a draining rank does not steal) until the
	// victim's worker is held and the tasks are queued behind it.
	sys.Locality(thief).SetPeer(thief, runtime.Draining, 0)
	if _, err := sys.Spawn("grant.hold", 0); err != nil {
		t.Fatal(err)
	}
	if r := <-held; r != victim {
		t.Fatalf("the victim's hold task started on rank %d", r)
	}
	futs := make([]*runtime.Future, tasks)
	for i := range futs {
		f, err := sys.SpawnJobTask("grant.work", i, 1, job, 0)
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = f
	}
	sys.Locality(thief).SetPeer(thief, runtime.Member, 0)
	select {
	case <-held: // the thief's only worker is inside a granted task
	case <-time.After(5 * time.Second):
		t.Fatal("the idle rank was granted nothing")
	}
	// The victim counts a grant before it ships it; the thief counts the
	// tasks one by one as it takes them in.
	granted := sys.Metrics(victim).CounterValue(sched.MetricStolenFrom)
	for deadline := time.Now().Add(5 * time.Second); sys.Scheduler(thief).QueueLen() != int(granted)-1; {
		if time.Now().After(deadline) {
			t.Fatalf("victim granted %d tasks, thief has %d queued, want all but the one it started",
				granted, sys.Scheduler(thief).QueueLen())
		}
		time.Sleep(100 * time.Microsecond)
	}
	if granted < 2 {
		t.Fatalf("victim granted %d task(s): the thief holds none it has not started", granted)
	}

	if cancel {
		sys.CancelJob(job)
	}
	sys.Kill(thief)
	rec.ReportDeath(thief)
	release()

	for i, f := range futs {
		var out int
		err := f.WaitInto(&out)
		switch {
		case cancel && !sched.IsJobCancelled(err):
			t.Fatalf("task %d of the cancelled job: err = %v, want job-cancelled", i, err)
		case !cancel && (err != nil || out != i):
			t.Fatalf("task %d = %d, err %v", i, out, err)
		}
	}
	for sys.Scheduler(victim).Load() != 0 {
		time.Sleep(time.Millisecond)
	}
	want := int64(1)
	if cancel {
		want = 0
	}
	for i := range ran {
		if got := ran[i].Load(); got != want {
			t.Fatalf("task %d ran %d times on the survivor, want %d", i, got, want)
		}
	}
	// A grant whose ack had not come back at the kill is taken over by
	// its ship's local fallback instead of the coordinator's respawn.
	respawned := sys.Metrics(0).CounterValue(MetricRespawned)
	t.Logf("%d granted, %d of them respawned by the coordinator", granted, respawned)
	if cancel && respawned != 0 {
		t.Fatalf("%d tasks of the cancelled job were respawned", respawned)
	}
}
