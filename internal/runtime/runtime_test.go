package runtime

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"allscale/internal/transport"
	"allscale/internal/wire"
)

type addArgs struct{ A, B int }

func (a *addArgs) AppendWire(buf []byte) ([]byte, error) {
	return wire.AppendVarint(wire.AppendVarint(buf, int64(a.A)), int64(a.B)), nil
}

func (a *addArgs) UnmarshalWire(d *wire.Decoder) error {
	a.A, a.B = d.Int(), d.Int()
	return nil
}

func newTestSystem(t *testing.T, n int) *System {
	t.Helper()
	s := NewSystem(n)
	t.Cleanup(func() { s.Close() })
	return s
}

func TestRPCBetweenLocalities(t *testing.T) {
	s := newTestSystem(t, 3)
	for _, l := range s.Localities() {
		l := l
		l.Handle("add", func(from int, body []byte) ([]byte, error) {
			var a addArgs
			if err := wire.Decode(body, &a); err != nil {
				return nil, err
			}
			return wire.Encode(a.A + a.B + l.Rank())
		})
	}
	s.Start()

	var sum int
	if err := s.Locality(0).Call(2, "add", &addArgs{3, 4}, &sum); err != nil {
		t.Fatal(err)
	}
	if sum != 9 {
		t.Fatalf("remote add = %d, want 9", sum)
	}
	// Local short-circuit.
	if err := s.Locality(1).Call(1, "add", &addArgs{1, 1}, &sum); err != nil {
		t.Fatal(err)
	}
	if sum != 3 {
		t.Fatalf("local add = %d, want 3", sum)
	}
}

func TestRPCErrorPropagation(t *testing.T) {
	s := newTestSystem(t, 2)
	s.Locality(1).Handle("fail", func(int, []byte) ([]byte, error) {
		return nil, errors.New("deliberate failure")
	})
	s.Locality(0).Handle("noop", func(int, []byte) ([]byte, error) { return nil, nil })
	s.Start()
	err := s.Locality(0).Call(1, "fail", nil, nil)
	if err == nil || err.Error() != "deliberate failure" {
		t.Fatalf("err = %v", err)
	}
	if err := s.Locality(0).Call(1, "missing", nil, nil); err == nil {
		t.Fatal("call of unregistered method must fail")
	}
}

func TestRPCConcurrent(t *testing.T) {
	s := newTestSystem(t, 4)
	for _, l := range s.Localities() {
		l.Handle("echo", func(from int, body []byte) ([]byte, error) {
			return body, nil
		})
	}
	s.Start()
	var wg sync.WaitGroup
	errs := make(chan error, 400)
	for i := 0; i < 100; i++ {
		for src := 0; src < 4; src++ {
			wg.Add(1)
			go func(src, i int) {
				defer wg.Done()
				var out int
				if err := s.Locality(src).Call((src+1)%4, "echo", i, &out); err != nil {
					errs <- err
					return
				}
				if out != i {
					errs <- fmt.Errorf("echo %d returned %d", i, out)
				}
			}(src, i)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestNestedRPCNoDeadlock(t *testing.T) {
	// A handler on rank 1 calling back into rank 0 must not deadlock:
	// each message is served on its own goroutine.
	s := newTestSystem(t, 2)
	s.Locality(0).Handle("leaf", func(int, []byte) ([]byte, error) {
		return wire.Encode("leaf-result")
	})
	s.Locality(1).Handle("middle", func(from int, _ []byte) ([]byte, error) {
		var r string
		if err := s.Locality(1).Call(0, "leaf", nil, &r); err != nil {
			return nil, err
		}
		return wire.Encode("middle+" + r)
	})
	s.Start()

	done := make(chan string, 1)
	go func() {
		var out string
		if err := s.Locality(0).Call(1, "middle", nil, &out); err != nil {
			done <- "err:" + err.Error()
			return
		}
		done <- out
	}()
	select {
	case got := <-done:
		if got != "middle+leaf-result" {
			t.Fatalf("nested rpc = %q", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("nested RPC deadlocked")
	}
}

func TestOneWayMessages(t *testing.T) {
	s := newTestSystem(t, 2)
	var count atomic.Int32
	s.Locality(1).HandleOneWay("tick", func(from int, body []byte) {
		var v int
		wire.Decode(body, &v)
		count.Add(int32(v))
	})
	s.Locality(0).HandleOneWay("tick", func(int, []byte) {})
	s.Start()
	for i := 0; i < 10; i++ {
		if err := s.Locality(0).Send(1, "tick", 2); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return count.Load() == 20 })
}

func TestPromisesLocalAndRemote(t *testing.T) {
	s := newTestSystem(t, 3)
	s.Start()

	// Local fulfilment.
	id, fut := namedPromise(s.Locality(0))
	if fut.Done() {
		t.Fatal("fresh future must not be done")
	}
	if err := s.Locality(0).FulfillRemote(id, 41, nil); err != nil {
		t.Fatal(err)
	}
	var v int
	if err := fut.WaitInto(&v); err != nil || v != 41 {
		t.Fatalf("local promise: v=%d err=%v", v, err)
	}

	// Remote fulfilment: promise owned by 1, fulfilled from 2.
	id2, fut2 := namedPromise(s.Locality(1))
	if err := s.Locality(2).FulfillRemote(id2, "done@2", nil); err != nil {
		t.Fatal(err)
	}
	var str string
	if err := fut2.WaitInto(&str); err != nil || str != "done@2" {
		t.Fatalf("remote promise: %q err=%v", str, err)
	}
	if !fut2.Done() {
		t.Fatal("fulfilled future must report done")
	}

	// Error fulfilment.
	id3, fut3 := namedPromise(s.Locality(0))
	s.Locality(2).FulfillRemote(id3, nil, errors.New("boom"))
	if _, err := fut3.Wait(); err == nil || err.Error() != "boom" {
		t.Fatalf("error promise: %v", err)
	}
}

func TestFutureFulfillIsIdempotent(t *testing.T) {
	f := new(Future)
	f.fulfill([]byte("a"), nil)
	f.fulfill([]byte("b"), errors.New("late"))
	v, err := f.Wait()
	if string(v) != "a" || err != nil {
		t.Fatalf("second fulfil must be ignored: %q %v", v, err)
	}
}

func TestLocalityOverTCP(t *testing.T) {
	eps, err := transport.NewTCPLoopback(2, transport.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ep0, ep1 := eps[0], eps[1]

	l0 := NewLocality(ep0)
	l1 := NewLocality(ep1)
	l0.RegisterPromiseService()
	l1.RegisterPromiseService()
	defer l0.Close()
	defer l1.Close()

	l1.Handle("double", func(from int, body []byte) ([]byte, error) {
		var x int
		if err := wire.Decode(body, &x); err != nil {
			return nil, err
		}
		return wire.Encode(2 * x)
	})

	var out int
	if err := l0.Call(1, "double", 21, &out); err != nil {
		t.Fatal(err)
	}
	if out != 42 {
		t.Fatalf("tcp rpc = %d, want 42", out)
	}

	id, fut := namedPromise(l0)
	if err := l1.FulfillRemote(id, 7, nil); err != nil {
		t.Fatal(err)
	}
	var v int
	if err := fut.WaitInto(&v); err != nil || v != 7 {
		t.Fatalf("tcp promise: %d %v", v, err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timeout")
		}
		time.Sleep(time.Millisecond)
	}
}
