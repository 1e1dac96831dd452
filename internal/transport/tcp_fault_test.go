package transport

import (
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fastConfig keeps fault-injection tests quick: tight timeouts mean a
// stalled write or dial fails in hundreds of milliseconds, not seconds.
func fastConfig() TCPConfig {
	return TCPConfig{
		WriteTimeout: 500 * time.Millisecond,
		DialTimeout:  200 * time.Millisecond,
		MaxFrame:     1 << 20,
	}
}

func newTCPPair(t *testing.T, cfg TCPConfig) (*TCPEndpoint, *TCPEndpoint, []string) {
	t.Helper()
	eps, err := NewTCPLoopback(2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := eps[0].(*TCPEndpoint), eps[1].(*TCPEndpoint)
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b, []string{a.Addr(), b.Addr()}
}

// TestTCPSendToCrashedPeer verifies that a Send to a peer that died
// returns an error within a bounded time instead of hanging, that the
// error is counted, and that the failure handler reports the rank.
func TestTCPSendToCrashedPeer(t *testing.T) {
	a, b, _ := newTCPPair(t, fastConfig())
	reg := bindRegistry(a)
	a.SetHandler(func(Message) {})
	b.SetHandler(func(Message) {})

	var failedPeer atomic.Int64
	failedPeer.Store(-1)
	a.SetFailureHandler(func(peer int, err error) { failedPeer.Store(int64(peer)) })

	if err := a.Send(1, "ping", []byte("x")); err != nil {
		t.Fatal(err)
	}
	b.Close() // crash the peer

	// The first sends may still land in OS buffers; within the retry
	// budget the fabric must start surfacing errors.
	deadline := time.Now().Add(5 * time.Second)
	var sendErr error
	for time.Now().Before(deadline) {
		done := make(chan error, 1)
		go func() { done <- a.Send(1, "ping", []byte("x")) }()
		select {
		case err := <-done:
			sendErr = err
		case <-time.After(3 * time.Second):
			t.Fatal("Send blocked past the write deadline + retry budget")
		}
		if sendErr != nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if sendErr == nil {
		t.Fatal("Send to crashed peer never returned an error")
	}
	if got := reg.CounterValue(MetricSendErrors); got == 0 {
		t.Fatalf("%s = %d, want > 0", MetricSendErrors, got)
	}
	if got := failedPeer.Load(); got != 1 {
		t.Fatalf("failure handler saw peer %d, want 1", got)
	}
}

// TestFailedSendHandsNothingOff: a Send that meets its connection's
// sticky write error fails, evicts the connection and reports the peer
// before it returns, and hands its frame to nobody — not even to a fresh
// dial, which would run a request whose caller the report already
// failed. The next Send dials afresh.
func TestFailedSendHandsNothingOff(t *testing.T) {
	a, b, _ := newTCPPair(t, fastConfig())
	a.SetHandler(func(Message) {})
	var mu sync.Mutex
	var kinds []string
	b.SetHandler(func(m Message) {
		mu.Lock()
		kinds = append(kinds, m.Kind)
		mu.Unlock()
	})
	received := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), kinds...)
	}
	var reported atomic.Int64
	reported.Store(-1)
	a.SetFailureHandler(func(peer int, _ error) { reported.CompareAndSwap(-1, int64(peer)) })

	if err := a.Send(1, "first", nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(received()) == 1 })
	a.mu.Lock()
	tc := a.conns[1]
	a.mu.Unlock()
	tc.mu.Lock()
	tc.err = errors.New("injected write failure")
	tc.mu.Unlock()

	if err := a.Send(1, "lost", []byte("x")); err == nil {
		t.Fatal("Send on a connection with a sticky error succeeded")
	}
	if got := reported.Load(); got != 1 {
		t.Fatalf("failure handler saw peer %d before Send returned, want 1", got)
	}
	if err := a.Send(1, "after", nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(received()) >= 2 })
	if got := received(); len(got) != 2 || got[1] != "after" {
		t.Fatalf("peer received %q, want [first after]", got)
	}
}

// TestTCPReconnectAfterRestart severs the peer, restarts it on the
// same address, and verifies that subsequent frames are delivered and
// counted as a reconnect.
func TestTCPReconnectAfterRestart(t *testing.T) {
	cfg := fastConfig()
	a, b, actual := newTCPPair(t, cfg)
	reg := bindRegistry(a)

	var got atomic.Int64
	a.SetHandler(func(Message) {})
	b.SetHandler(func(m Message) { got.Add(1) })

	if err := a.Send(1, "ping", nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Load() == 1 })

	b.Close()
	b2, err := NewTCPEndpointConfig(1, actual, cfg)
	if err != nil {
		t.Fatalf("restart peer on %s: %v", actual[1], err)
	}
	defer b2.Close()
	var got2 atomic.Int64
	b2.SetHandler(func(m Message) { got2.Add(1) })

	// Sends may fail while the old connection is torn down; the fabric
	// must eventually redial the restarted peer and deliver.
	deadline := time.Now().Add(5 * time.Second)
	for got2.Load() == 0 && time.Now().Before(deadline) {
		a.Send(1, "ping", nil)
		time.Sleep(10 * time.Millisecond)
	}
	if got2.Load() == 0 {
		t.Fatal("no frame delivered after peer restart")
	}
	if r := reg.CounterValue(MetricReconnects); r == 0 {
		t.Fatalf("%s = %d, want > 0", MetricReconnects, r)
	}
}

// TestTCPFrameSizeLimit feeds the endpoint corrupt length prefixes
// and verifies the frames are dropped (connection closed, counter
// bumped) rather than allocated.
func TestTCPFrameSizeLimit(t *testing.T) {
	a, _, _ := newTCPPair(t, fastConfig())
	reg := bindRegistry(a)
	var delivered atomic.Int64
	a.SetHandler(func(Message) { delivered.Add(1) })

	send := func(frame []byte) {
		c, err := net.Dial("tcp", a.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Write(frame); err != nil {
			t.Fatal(err)
		}
		// The endpoint must hang up on us.
		c.SetReadDeadline(time.Now().Add(3 * time.Second))
		var one [1]byte
		_, err = c.Read(one[:])
		if err == nil {
			t.Fatal("unexpected data from endpoint")
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			t.Fatal("endpoint kept a connection carrying a corrupt frame open")
		}
	}

	u32 := func(v uint32) []byte {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], v)
		return b[:]
	}

	// Payload length far beyond MaxFrame (would be a ~4 GB alloc).
	frame := append(append(append(u32(1), u32(1)...), 'k'), u32(0xFFFFFFF0)...)
	send(frame)
	waitFor(t, func() bool { return reg.CounterValue(MetricDroppedFrames) >= 1 })

	// Sender rank out of range.
	send(u32(99))
	waitFor(t, func() bool { return reg.CounterValue(MetricDroppedFrames) >= 2 })

	// Kind length beyond MaxFrame.
	send(append(u32(1), u32(0xFFFFFFF0)...))
	waitFor(t, func() bool { return reg.CounterValue(MetricDroppedFrames) >= 3 })

	if delivered.Load() != 0 {
		t.Fatalf("corrupt frames were delivered: %d", delivered.Load())
	}
}

// TestTCPConcurrentSendSetAddrsClose races Send, SetAddrs, SetHandler,
// Size and Close; run with -race. Errors from sends racing the close
// are expected — the invariant is no data race and no deadlock.
func TestTCPConcurrentSendSetAddrsClose(t *testing.T) {
	a, b, actual := newTCPPair(t, fastConfig())
	a.SetHandler(func(Message) {})
	b.SetHandler(func(Message) {})
	a.SetFailureHandler(func(int, error) {})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					a.Send(1, "k", []byte("v"))
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				a.SetAddrs(actual)
				a.SetHandler(func(Message) {})
				_ = a.Size()
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	b.Close()
	time.Sleep(20 * time.Millisecond)
	a.Close()
	close(stop)
	wg.Wait()
}
