package gopool

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func (p *Pool) parked() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// waitParked waits until the goroutines that ran the last functions
// have parked or exited — they do so just after their function returns.
func waitParked(t *testing.T, p *Pool, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for p.parked() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines parked, want %d", p.parked(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGoRunsEachFunctionOnce: 10 000 Go calls from 100 goroutines, each
// function runs exactly once, and what stays parked respects the cap.
func TestGoRunsEachFunctionOnce(t *testing.T) {
	var p Pool
	defer p.Close()
	const callers, perCaller = 100, 100
	ran := make([]atomic.Int32, callers*perCaller)
	var done, calls sync.WaitGroup
	done.Add(len(ran))
	for c := 0; c < callers; c++ {
		calls.Add(1)
		go func(c int) {
			defer calls.Done()
			for i := 0; i < perCaller; i++ {
				slot := &ran[c*perCaller+i]
				p.Go(func() {
					slot.Add(1)
					if n := p.parked(); n > maxIdle {
						t.Errorf("%d goroutines parked, cap is %d", n, maxIdle)
					}
					done.Done()
				})
			}
		}(c)
	}
	calls.Wait()
	done.Wait()
	for i := range ran {
		if n := ran[i].Load(); n != 1 {
			t.Fatalf("function %d ran %d times", i, n)
		}
	}
}

// TestGoNeverBoundsConcurrency: a chain of functions each blocked on
// the result of the next, far longer than the idle cap, completes — Go
// starts a goroutine whenever none is parked instead of queueing.
func TestGoNeverBoundsConcurrency(t *testing.T) {
	var p Pool
	defer p.Close()
	const depth = 4 * maxIdle
	var link func(level int, out chan<- int)
	link = func(level int, out chan<- int) {
		if level == depth {
			out <- 0
			return
		}
		in := make(chan int)
		p.Go(func() { link(level+1, in) })
		out <- 1 + <-in
	}
	out := make(chan int)
	p.Go(func() { link(0, out) })
	select {
	case got := <-out:
		if got != depth {
			t.Fatalf("chain returned %d, want %d", got, depth)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("functions blocked on one another deadlocked: the pool bounds concurrency")
	}
	waitParked(t, &p, maxIdle)
}

// TestGoReusesParkedGoroutine: a function started while a goroutine is
// parked takes that goroutine off the free-list instead of starting
// another.
func TestGoReusesParkedGoroutine(t *testing.T) {
	var p Pool
	defer p.Close()
	during := make(chan int)
	for i := 0; i < 3; i++ {
		p.Go(func() { during <- p.parked() })
		if n := <-during; n != 0 {
			t.Fatalf("call %d: %d goroutines parked while the only function runs", i, n)
		}
		waitParked(t, &p, 1)
	}
}

// TestCloseReleasesParked: Close empties the free-list, goroutines
// finishing afterwards exit instead of parking, and Go keeps running
// functions.
func TestCloseReleasesParked(t *testing.T) {
	var p Pool
	var wg sync.WaitGroup
	block := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		p.Go(func() { defer wg.Done(); <-block })
	}
	close(block)
	wg.Wait()
	waitParked(t, &p, 8)
	p.Close()
	if n := p.parked(); n != 0 {
		t.Fatalf("%d goroutines parked after Close", n)
	}
	ran := make(chan struct{})
	p.Go(func() { close(ran) })
	<-ran
	time.Sleep(10 * time.Millisecond)
	if n := p.parked(); n != 0 {
		t.Fatalf("%d goroutines parked after a Go on a closed pool", n)
	}
}
