package transport

import (
	"encoding/binary"
	"sync"
	"testing"
	"time"
)

// TestTCPCoalescedOrdering floods one connection with small frames
// from several goroutines and verifies the coalescing writer's
// contract: every accepted frame arrives exactly once, frames of one
// sender goroutine keep their order, and the traffic counters account
// for every frame.
func TestTCPCoalescedOrdering(t *testing.T) {
	a, b, _ := newTCPPair(t, fastConfig())
	regA, regB := bindRegistry(a), bindRegistry(b)
	a.SetHandler(func(Message) {})

	const senders, perSender = 8, 500
	type rcvd struct {
		sender, seq uint32
	}
	var mu sync.Mutex
	var got []rcvd
	done := make(chan struct{})
	b.SetHandler(func(m Message) {
		if m.Kind != "seq" || len(m.Payload) != 8 {
			t.Errorf("unexpected message kind %q len %d", m.Kind, len(m.Payload))
			return
		}
		mu.Lock()
		got = append(got, rcvd{
			sender: binary.BigEndian.Uint32(m.Payload),
			seq:    binary.BigEndian.Uint32(m.Payload[4:]),
		})
		if len(got) == senders*perSender {
			close(done)
		}
		mu.Unlock()
	})

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var p [8]byte
			binary.BigEndian.PutUint32(p[:], uint32(s))
			for i := 0; i < perSender; i++ {
				binary.BigEndian.PutUint32(p[4:], uint32(i))
				if err := a.Send(1, "seq", p[:]); err != nil {
					t.Errorf("send %d/%d: %v", s, i, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()

	select {
	case <-done:
	case <-time.After(5 * time.Second):
		mu.Lock()
		n := len(got)
		mu.Unlock()
		t.Fatalf("timed out: received %d of %d frames", n, senders*perSender)
	}

	// Per-sender FIFO: Send returns after its frame is queued, so each
	// goroutine's own sequence must arrive monotonically.
	next := make([]uint32, senders)
	mu.Lock()
	defer mu.Unlock()
	for _, r := range got {
		if r.seq != next[r.sender] {
			t.Fatalf("sender %d: got seq %d, want %d", r.sender, r.seq, next[r.sender])
		}
		next[r.sender]++
	}

	if sent := regA.CounterValue(MetricMsgsSent); sent != senders*perSender {
		t.Fatalf("sender counted %d sent messages, want %d", sent, senders*perSender)
	}
	if recv := regB.CounterValue(MetricMsgsReceived); recv != senders*perSender {
		t.Fatalf("receiver counted %d received messages, want %d", recv, senders*perSender)
	}
}
