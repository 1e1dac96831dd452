package runtime

import (
	"errors"
	"sync"
	"testing"
)

// A future makes its channel only for a waiter that has to block, so
// what Ready hands out depends on when it is asked. Whenever that is —
// before, during or after the fulfilment — every caller gets a channel
// that is closed once the value is there, and a second fulfilment closes
// nothing twice (closing a closed channel panics) and changes nothing.
func TestFutureReadyClosedOnce(t *testing.T) {
	closed := func(ch <-chan struct{}) bool {
		select {
		case <-ch:
			return true
		default:
			return false
		}
	}
	refulfill := func(f *Future) {
		t.Helper()
		f.fulfill([]byte("late"), errors.New("late"))
		if v, err := f.Wait(); string(v) != "v" || err != nil {
			t.Fatalf("a second fulfilment got through: %q, %v", v, err)
		}
	}

	before := new(Future)
	ch := before.Ready()
	if closed(ch) || before.Done() {
		t.Fatal("unfulfilled future reads as ready")
	}
	before.fulfill([]byte("v"), nil)
	if !closed(ch) || !before.Done() || before.Ready() != ch {
		t.Fatal("Ready taken before the fulfilment: not closed by it, or not the channel handed out since")
	}
	refulfill(before)

	after := new(Future)
	after.fulfill([]byte("v"), nil)
	if !closed(after.Ready()) || after.Ready() != after.Ready() {
		t.Fatal("Ready taken after the fulfilment is not one closed channel")
	}
	refulfill(after)

	for round := 0; round < 200; round++ {
		f := new(Future)
		const waiters = 4
		chans := make([]<-chan struct{}, waiters)
		var wg sync.WaitGroup
		for i := range chans {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				chans[i] = f.Ready()
				<-chans[i]
				if v, err := f.Wait(); string(v) != "v" || err != nil {
					t.Errorf("round %d: waiter woke to %q, %v", round, v, err)
				}
			}(i)
		}
		wg.Add(2)
		for i := 0; i < 2; i++ {
			go func() {
				defer wg.Done()
				f.fulfill([]byte("v"), nil)
			}()
		}
		wg.Wait()
		for _, ch := range chans {
			if !closed(ch) {
				t.Fatalf("round %d: a channel handed out during the fulfilment was never closed", round)
			}
		}
	}
}

// Wait on a future that is already fulfilled — a child its spawner ran
// inline — costs no allocation, makes no channel and does not bother the
// helper.
func TestWaitOnFulfilledFutureAllocatesNothing(t *testing.T) {
	f := new(Future)
	h := &countingHelper{}
	f.SetWaitHelper(h)
	f.fulfill([]byte("v"), nil)
	if n := testing.AllocsPerRun(100, func() { f.Wait() }); n != 0 {
		t.Fatalf("Wait on a fulfilled future allocates %.0f times", n)
	}
	if f.ch != nil {
		t.Fatal("Wait on a fulfilled future made a channel")
	}
	if h.calls != 0 {
		t.Fatalf("helper called %d times for a fulfilled future", h.calls)
	}

	// An unfulfilled one is offered to the helper, which gets the future
	// itself and may return only once it is done.
	g := new(Future)
	g.SetWaitHelper(h)
	h.fulfill = func(f *Future) { f.fulfill([]byte("w"), nil) }
	if v, err := g.Wait(); string(v) != "w" || err != nil || h.calls != 1 {
		t.Fatalf("helped wait: %q, %v after %d helper calls", v, err, h.calls)
	}
	if g.ch != nil {
		t.Fatal("a wait the helper finished made a channel")
	}
}

type countingHelper struct {
	calls   int
	fulfill func(*Future)
}

func (h *countingHelper) HelpWait(f *Future) {
	h.calls++
	h.fulfill(f)
}

// The promise table behind NamePromise/FulfillRemote/PromisePending: a
// fulfilled promise is no longer pending, and Close fails every promise
// still stored — on whichever stripe — once, leaving the table empty and
// the fulfilled ones alone.
func TestPromiseTableFulfilAndClose(t *testing.T) {
	s := NewSystem(2)
	s.Start()
	loc := s.Locality(0)
	const n = 100
	ids := make([]PromiseID, n)
	futs := make([]*Future, n)
	for i := range futs {
		ids[i], futs[i] = namedPromise(loc)
		if !loc.PromisePending(ids[i]) {
			t.Fatalf("fresh promise %v not pending", ids[i])
		}
		if s.Locality(1).PromisePending(ids[i]) {
			t.Fatalf("promise %v pending at a rank that does not own it", ids[i])
		}
	}
	for i := 0; i < n; i += 2 {
		if err := loc.FulfillRemote(ids[i], int64(i), nil); err != nil {
			t.Fatal(err)
		}
		if loc.PromisePending(ids[i]) {
			t.Fatalf("fulfilled promise %v still pending", ids[i])
		}
	}
	s.Close()
	for i, fut := range futs {
		if !fut.Done() {
			t.Fatalf("promise %v neither fulfilled nor failed by Close", ids[i])
		}
		if loc.PromisePending(ids[i]) {
			t.Fatalf("promise %v still stored after Close", ids[i])
		}
		var v int64
		err := fut.WaitInto(&v)
		if i%2 == 0 && (err != nil || v != int64(i)) {
			t.Fatalf("promise %v fulfilled before Close: %d, %v", ids[i], v, err)
		}
		if i%2 == 1 && err == nil {
			t.Fatalf("promise %v outstanding at Close resolved without error", ids[i])
		}
	}
	// A late fulfilment of a promise Close failed changes nothing.
	loc.fulfillLocal(ids[1].Seq, []byte("late"), "")
	if _, err := futs[1].Wait(); err == nil {
		t.Fatal("a fulfilment after Close replaced the close error")
	}
}

// namedPromise names a fresh future at l, as a ship names the future of
// a task that leaves its rank.
func namedPromise(l *Locality) (PromiseID, *Future) {
	f := new(Future)
	return l.NamePromise(f), f
}
