package runtime

import (
	"errors"
	"testing"
	"time"

	"allscale/internal/transport"
	"allscale/internal/wire"
)

// newTCPLocalities builds n localities over real loopback TCP
// endpoints with tight write and dial timeouts, returning both layers
// so tests can sever transport connections underneath the runtime.
func newTCPLocalities(t *testing.T, n int) ([]*Locality, []transport.Endpoint) {
	return tcpLocalities(t, n, transport.TCPConfig{
		WriteTimeout: 500 * time.Millisecond,
		DialTimeout:  200 * time.Millisecond,
	})
}

// tcpLocalities is newTCPLocalities over cfg.
func tcpLocalities(t *testing.T, n int, cfg transport.TCPConfig) ([]*Locality, []transport.Endpoint) {
	t.Helper()
	eps, err := transport.NewTCPLoopback(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	locs := make([]*Locality, n)
	for i, ep := range eps {
		t.Cleanup(func() { ep.Close() })
		locs[i] = NewLocality(ep)
		locs[i].RegisterPromiseService()
	}
	return locs, eps
}

// waitErr joins a future under a bound, failing the test on a hang —
// the core acceptance check: no RPC may wait forever on a dead peer.
func waitErr(t *testing.T, fut *Future, bound time.Duration) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := fut.Wait()
		done <- err
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(bound):
		t.Fatal("future not resolved within bound: caller hangs on dead peer")
		return nil
	}
}

// TestCallFailsWhenPeerDiesMidRPC severs the server's socket while an
// RPC is parked in its handler: the caller's future must fail with
// ErrPeerFailed within a bounded time instead of hanging.
func TestCallFailsWhenPeerDiesMidRPC(t *testing.T) {
	locs, eps := newTCPLocalities(t, 2)
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	locs[1].Handle("block", func(from int, body []byte) ([]byte, error) {
		close(started)
		<-release // holds the RPC open until the test ends
		return nil, nil
	})

	fut := locs[0].CallAsync(1, "block", struct{}{})
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the server")
	}

	eps[1].Close() // kill the server's sockets mid-RPC

	err := waitErr(t, fut, 5*time.Second)
	if err == nil {
		t.Fatal("future resolved without error despite dead peer")
	}
	if !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("error = %v, want ErrPeerFailed", err)
	}
}

// TestCallToAClosedPeerReturnsAtOnce: over the default TCPConfig, a
// CallAsync to a peer whose endpoint is closed returns to its caller
// within one DialTimeout — the fabric dials once and retries nothing —
// and its future fails with ErrPeerFailed, the refused dial having been
// reported before the Send returned.
func TestCallToAClosedPeerReturnsAtOnce(t *testing.T) {
	locs, eps := tcpLocalities(t, 2, transport.TCPConfig{})
	locs[1].Handle("nop", func(int, []byte) ([]byte, error) { return nil, nil })
	eps[1].Close()
	start := time.Now()
	fut := locs[0].CallAsync(1, "nop", struct{}{})
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("CallAsync to a closed peer took %v, want less than the 1s DialTimeout", took)
	}
	if err := waitErr(t, fut, 5*time.Second); !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("error = %v, want ErrPeerFailed", err)
	}
}

// TestCallSyncFailsWhenPeerDies is the synchronous-Call variant of
// the mid-RPC fault injection.
func TestCallSyncFailsWhenPeerDies(t *testing.T) {
	locs, eps := newTCPLocalities(t, 2)
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	locs[1].Handle("block", func(from int, body []byte) ([]byte, error) {
		close(started)
		<-release
		return nil, nil
	})

	done := make(chan error, 1)
	go func() { done <- locs[0].Call(1, "block", struct{}{}, nil) }()
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the server")
	}
	eps[1].Close()

	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Call returned nil despite dead peer")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Call still blocked 5s after peer death")
	}
}

// TestCloseFailsOutstandingCalls shuts the *caller* down while one of
// its calls is outstanding; the call must fail instead of stranding
// its waiter (over the in-process fabric, which has no link failure
// detection of its own).
func TestCloseFailsOutstandingCalls(t *testing.T) {
	s := NewSystem(2)
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	s.Locality(1).Handle("block", func(from int, body []byte) ([]byte, error) {
		close(started)
		<-release
		return nil, nil
	})
	s.Locality(0).Handle("noop", func(int, []byte) ([]byte, error) { return nil, nil })
	s.Start()
	defer s.Close()

	fut := s.Locality(0).CallAsync(1, "block", struct{}{})
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached rank 1")
	}
	s.Locality(0).Close()

	if err := waitErr(t, fut, 5*time.Second); err == nil {
		t.Fatal("outstanding call survived locality close without error")
	}
}

// TestCallRacingCloseFails: a call issued while the caller closes — a
// task still running on a killed locality does that — lands in the
// calls map after Close has swept it. It has no deadline and its reply
// cannot arrive any more; CallAsync itself must notice and fail it, or
// the task's worker never returns.
func TestCallRacingCloseFails(t *testing.T) {
	for round := 0; round < 300; round++ {
		s := NewSystem(2)
		s.Locality(1).Handle("noop", func(int, []byte) ([]byte, error) { return nil, nil })
		s.Start()
		const callers = 8
		done := make(chan struct{}, callers)
		for g := 0; g < callers; g++ {
			go func() {
				defer func() { done <- struct{}{} }()
				for {
					if _, err := s.Locality(0).CallAsync(1, "noop", struct{}{}).Wait(); err != nil {
						return
					}
				}
			}()
		}
		time.Sleep(time.Duration(round%10) * 20 * time.Microsecond)
		s.Locality(0).Close()
		for g := 0; g < callers; g++ {
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: a call issued across Close is still pending", round)
			}
		}
		s.Close()
	}
}

// TestPromiseAfterCloseFails: Close fails the promises outstanding at
// that moment; one made afterwards — by a task still unwinding on a
// killed locality — must come back failed too, or its waiter (and the
// task's open spans) would stay for ever.
func TestPromiseAfterCloseFails(t *testing.T) {
	s := NewSystem(1)
	s.Start()
	loc := s.Locality(0)
	_, before := namedPromise(loc)
	loc.Close()
	id, after := namedPromise(loc)
	for name, fut := range map[string]*Future{"before": before, "after": after} {
		if err := waitErr(t, fut, 5*time.Second); err == nil {
			t.Errorf("promise made %s Close resolved without error", name)
		}
	}
	if loc.PromisePending(id) {
		t.Error("promise made after Close is still registered")
	}
}

// TestCallAsyncDeliversResult covers the non-failure path of the new
// future-based call API.
func TestCallAsyncDeliversResult(t *testing.T) {
	s := NewSystem(2)
	s.Locality(0).Handle("noop", func(int, []byte) ([]byte, error) { return nil, nil })
	s.Locality(1).Handle("double", func(from int, body []byte) ([]byte, error) {
		var x int
		if err := wire.Decode(body, &x); err != nil {
			return nil, err
		}
		return wire.Encode(2 * x)
	})
	s.Start()
	defer s.Close()

	fut := s.Locality(0).CallAsync(1, "double", 21)
	var out int
	if err := fut.WaitInto(&out); err != nil {
		t.Fatal(err)
	}
	if out != 42 {
		t.Fatalf("double(21) = %d over CallAsync, want 42", out)
	}

	// Local destination short-circuits but keeps identical semantics.
	fut = s.Locality(1).CallAsync(1, "double", 4)
	if err := fut.WaitInto(&out); err != nil {
		t.Fatal(err)
	}
	if out != 8 {
		t.Fatalf("local double(4) = %d, want 8", out)
	}
}
