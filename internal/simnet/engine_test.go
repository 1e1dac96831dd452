package simnet

import (
	"math/rand"
	"sort"
	"testing"
)

func TestEngineOrdersEvents(t *testing.T) {
	var e Engine
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	end := e.Run()
	if end != 3 {
		t.Fatalf("end time = %v", end)
	}
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if len(e.events) != 0 {
		t.Fatalf("%d events left after Run", len(e.events))
	}
}

func TestEngineTieBreakIsFIFO(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

// TestEngineFiresInTimeThenScheduleOrder drives the heap with a few
// thousand events at a handful of distinct times, a third of them
// scheduled from inside callbacks (some with zero or negative delay),
// and checks the firing order against a stable sort of the scheduled
// events by time.
func TestEngineFiresInTimeThenScheduleOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	var e Engine
	var at []Time // firing time of each event, indexed in scheduling order
	var fired []int
	var schedule func(delay Time)
	schedule = func(delay Time) {
		id := len(at)
		at = append(at, e.Now()+max(delay, 0))
		e.Schedule(delay, func() {
			if e.Now() != at[id] {
				t.Fatalf("event %d fired at %v, scheduled for %v", id, e.Now(), at[id])
			}
			fired = append(fired, id)
			if len(at) < 3000 && rng.Intn(2) == 0 {
				schedule(Time(rng.Intn(6) - 1))
			}
		})
	}
	for i := 0; i < 2000; i++ {
		schedule(Time(rng.Intn(40)))
	}
	e.Run()

	want := make([]int, len(at))
	for i := range want {
		want[i] = i
	}
	sort.SliceStable(want, func(i, j int) bool { return at[want[i]] < at[want[j]] })
	if len(at) < 2500 || len(fired) != len(want) {
		t.Fatalf("scheduled %d events, fired %d", len(at), len(fired))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("firing %d: event %d (t=%v), want event %d (t=%v)",
				i, fired[i], at[fired[i]], want[i], at[want[i]])
		}
	}
}

func TestEventsScheduleEvents(t *testing.T) {
	var e Engine
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			e.Schedule(1, recurse)
		}
	}
	e.Schedule(1, recurse)
	end := e.Run()
	if depth != 5 || end != 5 {
		t.Fatalf("depth=%d end=%v", depth, end)
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	var e Engine
	ran := false
	e.Schedule(-5, func() { ran = true })
	if end := e.Run(); end != 0 || !ran {
		t.Fatalf("end=%v ran=%v", end, ran)
	}
}

func TestResourceCapacityAndQueueing(t *testing.T) {
	var e Engine
	r := newResource(&e, 2)
	var done []Time
	for i := 0; i < 4; i++ {
		r.Use(10, func() { done = append(done, e.Now()) })
	}
	if r.busy != 2 || len(r.queue) != 2 {
		t.Fatalf("busy=%d queued=%d", r.busy, len(r.queue))
	}
	e.Run()
	// Two finish at t=10, two queued start at 10 and finish at 20.
	if len(done) != 4 || done[0] != 10 || done[1] != 10 || done[2] != 20 || done[3] != 20 {
		t.Fatalf("completion times = %v", done)
	}
	if r.busy != 0 || len(r.queue) != 0 {
		t.Fatalf("after Run: busy=%d queued=%d", r.busy, len(r.queue))
	}
}

func TestResourceInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero capacity must panic")
		}
	}()
	newResource(&Engine{}, 0)
}
