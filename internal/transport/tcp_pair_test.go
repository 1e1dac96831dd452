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

// connCount is the number of connections e holds, dialed or accepted.
func connCount(e *TCPEndpoint) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.all)
}

// TestOneConnectionPerPair: rank 0 sends first and rank 1 replies on
// the connection rank 0 dialed. Rank 1 dials nothing, each side holds
// one connection, and nothing counts as a reconnect.
func TestOneConnectionPerPair(t *testing.T) {
	a, b, _ := newTCPPair(t, fastConfig())
	regA, regB := bindRegistry(a), bindRegistry(b)
	replies := make(chan struct{}, 1)
	a.SetHandler(func(Message) { replies <- struct{}{} })
	b.SetHandler(func(m Message) {
		if err := b.Send(m.From, "reply", m.Payload); err != nil {
			t.Errorf("reply: %v", err)
		}
	})
	for i := 0; i < 3; i++ {
		if err := a.Send(1, "req", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-replies:
		case <-time.After(5 * time.Second):
			t.Fatalf("no reply to request %d", i)
		}
	}
	if na, nb := connCount(a), connCount(b); na != 1 || nb != 1 {
		t.Fatalf("rank 0 holds %d connections and rank 1 %d, want 1 each", na, nb)
	}
	b.mu.Lock()
	adopted := b.conns[0]
	b.mu.Unlock()
	if adopted == nil || adopted.peer != 0 {
		t.Fatal("rank 1 did not adopt the accepted connection as rank 0's")
	}
	if r := regA.CounterValue(MetricReconnects) + regB.CounterValue(MetricReconnects); r != 0 {
		t.Fatalf("%s = %d, want 0", MetricReconnects, r)
	}
}

// TestCrossedFirstFramesStayCorrect: both ranks make their first Send
// at once, so each may dial before it has seen the other's connection.
// Whichever connections the pair ends up with, every frame is delivered
// once and in per-sender order, and no failure is reported.
func TestCrossedFirstFramesStayCorrect(t *testing.T) {
	const n = 1000
	a, b, _ := newTCPPair(t, fastConfig())
	eps := []*TCPEndpoint{a, b}
	var failures atomic.Int64 // read before the cleanup's Close reports the peer
	var wg sync.WaitGroup
	wg.Add(2)
	var mu sync.Mutex
	next := make([]uint32, 2) // next sequence number each rank expects
	for r, e := range eps {
		r := r
		e.SetFailureHandler(func(int, error) { failures.Add(1) })
		e.SetHandler(func(m Message) {
			mu.Lock()
			defer mu.Unlock()
			if seq := binary.BigEndian.Uint32(m.Payload); seq != next[r] {
				t.Errorf("rank %d got frame %d from rank %d, want %d", r, seq, m.From, next[r])
			}
			if next[r]++; next[r] == n {
				wg.Done()
			}
		})
	}
	start := make(chan struct{})
	var senders sync.WaitGroup
	for r, e := range eps {
		senders.Add(1)
		go func(r int, e *TCPEndpoint) {
			defer senders.Done()
			<-start
			var p [4]byte
			for i := uint32(0); i < n; i++ {
				binary.BigEndian.PutUint32(p[:], i)
				if err := e.Send(1-r, "seq", p[:]); err != nil {
					t.Errorf("rank %d send %d: %v", r, i, err)
					return
				}
			}
		}(r, e)
	}
	close(start)
	senders.Wait()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("frames delivered: rank 0 %d, rank 1 %d of %d", next[0], next[1], n)
	}
	if f := failures.Load(); f != 0 {
		t.Fatalf("%d failures reported", f)
	}
	t.Logf("connections: rank 0 %d, rank 1 %d", connCount(a), connCount(b))
}

// TestOneReadPerArrival: n frames, each answered before the next is
// sent, cost the receiver n read(2) calls. A reader that reads until
// EAGAIN pays 2n.
func TestOneReadPerArrival(t *testing.T) {
	const n = 200
	a, b, _ := newTCPPair(t, fastConfig())
	regB := bindRegistry(b)
	replies := make(chan struct{}, 1)
	a.SetHandler(func(Message) { replies <- struct{}{} })
	b.SetHandler(func(m Message) { b.Send(m.From, "reply", nil) })
	exchange := func() {
		if err := a.Send(1, "req", []byte("x")); err != nil {
			t.Fatal(err)
		}
		select {
		case <-replies:
		case <-time.After(5 * time.Second):
			t.Fatal("no reply")
		}
	}
	exchange() // the connection is up and its reader waits
	before := regB.CounterValue(MetricReads)
	for i := 0; i < n; i++ {
		exchange()
	}
	if reads := regB.CounterValue(MetricReads) - before; reads != n {
		t.Fatalf("%d frames cost the receiver %d reads, want %d", n, reads, n)
	}
}

// TestStalledPeerFailsWithinWriteTimeout: a peer that accepts and never
// reads fills the socket buffers; the write that waits for room then
// fails at WriteTimeout, the connection is evicted and the peer
// reported, and no Send blocks past that.
func TestStalledPeerFailsWithinWriteTimeout(t *testing.T) {
	cfg := fastConfig()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var mu sync.Mutex
	var stalled []net.Conn // never read
	defer func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range stalled {
			c.Close()
		}
	}()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			stalled = append(stalled, c)
			mu.Unlock()
		}
	}()
	a, err := NewTCPEndpointConfig(0, []string{"127.0.0.1:0", ln.Addr().String()}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	a.SetHandler(func(Message) {})
	reported := make(chan time.Time, 1)
	a.SetFailureHandler(func(peer int, _ error) {
		if peer != 1 {
			t.Errorf("failure names rank %d, want 1", peer)
		}
		select {
		case reported <- time.Now():
		default:
		}
	})

	payload := make([]byte, 256<<10)
	slack := 2 * time.Second
	start := time.Now()
	var sendErr error
	for sendErr == nil && time.Since(start) < cfg.WriteTimeout+10*slack {
		t0 := time.Now()
		sendErr = a.Send(1, "bulk", payload)
		if d := time.Since(t0); d > cfg.WriteTimeout+slack {
			t.Fatalf("a Send blocked %v, past WriteTimeout %v", d, cfg.WriteTimeout)
		}
	}
	select {
	case at := <-reported:
		// Filling loopback buffers takes milliseconds; the rest is the
		// deadline of the write that waited for room.
		if d := at.Sub(start); d > cfg.WriteTimeout+slack {
			t.Fatalf("peer reported %v after the first Send, want within %v", d, cfg.WriteTimeout+slack)
		}
	case <-time.After(cfg.WriteTimeout + slack):
		t.Fatalf("stalled peer never reported (last Send error %v)", sendErr)
	}
	if sendErr == nil {
		t.Fatal("no Send failed on the stalled connection")
	}
	a.mu.Lock()
	cached := a.conns[1] != nil
	a.mu.Unlock()
	if cached {
		t.Fatal("the stalled connection is still cached")
	}
}

// TestEndBehindTheLastFrameIsSeen: a peer that writes a frame and
// closes at once often has its FIN arrive with the frame, and a read
// that returns the frame's bytes says nothing of it. The reader must
// still see the end and report the peer, every time.
func TestEndBehindTheLastFrameIsSeen(t *testing.T) {
	a, _, _ := newTCPPair(t, fastConfig())
	a.SetHandler(func(Message) {})
	reported := make(chan int, 1)
	a.SetFailureHandler(func(peer int, _ error) { reported <- peer })
	frame := appendFrame(nil, 1, "last", []byte("x"))
	for i := 0; i < 100; i++ {
		c, err := net.Dial("tcp", a.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(frame); err != nil {
			t.Fatal(err)
		}
		c.Close()
		select {
		case peer := <-reported:
			if peer != 1 {
				t.Fatalf("connection %d: reported rank %d, want 1", i, peer)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("connection %d: its end behind the last frame went unseen", i)
		}
	}
}

// TestHandlerSendOnBrokenConnectionReturns: a handler runs inside its
// connection's read, so a Send from it that meets a sticky error and
// tears that very connection down must not wait for the read to end —
// closing the socket there would.
func TestHandlerSendOnBrokenConnectionReturns(t *testing.T) {
	a, b, _ := newTCPPair(t, fastConfig())
	a.SetHandler(func(Message) {})
	sent := make(chan error, 1)
	b.SetHandler(func(m Message) {
		b.mu.Lock()
		tc := b.conns[m.From]
		b.mu.Unlock()
		tc.mu.Lock()
		tc.err = errors.New("injected write failure")
		tc.mu.Unlock()
		sent <- b.Send(m.From, "reply", nil)
	})
	if err := a.Send(1, "req", nil); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-sent:
		if err == nil {
			t.Fatal("Send on a connection with a sticky error succeeded")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a handler's failing Send did not return")
	}
}
