package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"allscale/internal/metrics"
)

func TestInprocBasicDelivery(t *testing.T) {
	f := NewFabric(3)
	var got [3][]string
	var mu sync.Mutex
	for i := 0; i < 3; i++ {
		i := i
		f.Endpoint(i).SetHandler(func(m Message) {
			mu.Lock()
			got[i] = append(got[i], fmt.Sprintf("%d:%s:%s", m.From, m.Kind, m.Payload))
			mu.Unlock()
		})
	}
	f.Start()
	defer f.Close()

	if err := f.Endpoint(0).Send(1, "ping", []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := f.Endpoint(2).Send(1, "ping", []byte("b")); err != nil {
		t.Fatal(err)
	}
	if err := f.Endpoint(1).Send(1, "self", []byte("c")); err != nil {
		t.Fatal(err)
	}

	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(got[1]) == 3
	})
	mu.Lock()
	defer mu.Unlock()
	want := map[string]bool{"0:ping:a": true, "2:ping:b": true, "1:self:c": true}
	for _, g := range got[1] {
		if !want[g] {
			t.Fatalf("unexpected delivery %q", g)
		}
	}
}

func TestInprocOrderingPerSender(t *testing.T) {
	f := NewFabric(2)
	var seq []int
	var mu sync.Mutex
	f.Endpoint(0).SetHandler(func(m Message) {})
	f.Endpoint(1).SetHandler(func(m Message) {
		mu.Lock()
		seq = append(seq, int(m.Payload[0]))
		mu.Unlock()
	})
	f.Start()
	defer f.Close()
	const n = 200
	for i := 0; i < n; i++ {
		if err := f.Endpoint(0).Send(1, "seq", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seq) == n
	})
	mu.Lock()
	defer mu.Unlock()
	for i, v := range seq {
		if v != i%256 {
			t.Fatalf("out of order at %d: got %d", i, v)
		}
	}
}

func TestInprocInvalidRank(t *testing.T) {
	f := NewFabric(2)
	f.Endpoint(0).SetHandler(func(Message) {})
	f.Endpoint(1).SetHandler(func(Message) {})
	f.Start()
	defer f.Close()
	if err := f.Endpoint(0).Send(7, "x", nil); err == nil {
		t.Fatal("send to invalid rank must fail")
	}
	if err := f.Endpoint(0).Send(-1, "x", nil); err == nil {
		t.Fatal("send to negative rank must fail")
	}
}

func TestInprocStats(t *testing.T) {
	f := NewFabric(2)
	var delivered atomic.Int64
	f.Endpoint(0).SetHandler(func(Message) {})
	f.Endpoint(1).SetHandler(func(Message) { delivered.Add(1) })
	sender, receiver := bindRegistry(f.Endpoint(0)), bindRegistry(f.Endpoint(1))
	f.Start()
	defer f.Close()
	payload := make([]byte, 100)
	for i := 0; i < 5; i++ {
		if err := f.Endpoint(0).Send(1, "data", payload); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return delivered.Load() == 5 })
	if n, b := sender.CounterValue(MetricMsgsSent), sender.CounterValue(MetricBytesSent); n != 5 || b != 500 {
		t.Fatalf("sender counted %d messages, %d bytes, want 5 and 500", n, b)
	}
	if n, b := receiver.CounterValue(MetricMsgsReceived), receiver.CounterValue(MetricBytesReceived); n != 5 || b != 500 {
		t.Fatalf("receiver counted %d messages, %d bytes, want 5 and 500", n, b)
	}
}

func TestInprocStartWithoutHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Start without handlers must panic")
		}
	}()
	NewFabric(1).Start()
}

func TestTCPLoopback(t *testing.T) {
	// Three processes on loopback with OS-assigned ports.
	eps, err := NewTCPLoopback(3, TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, ep := range eps {
		defer ep.Close()
	}

	var mu sync.Mutex
	received := make(map[string]int)
	for _, ep := range eps {
		ep.SetHandler(func(m Message) {
			mu.Lock()
			received[fmt.Sprintf("%d->%d %s %s", m.From, m.To, m.Kind, m.Payload)]++
			mu.Unlock()
		})
	}

	if err := eps[0].Send(1, "hello", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := eps[1].Send(2, "hello", []byte("y")); err != nil {
		t.Fatal(err)
	}
	if err := eps[2].Send(0, "hello", []byte("z")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(received) == 3
	})
	mu.Lock()
	defer mu.Unlock()
	for _, k := range []string{"0->1 hello x", "1->2 hello y", "2->0 hello z"} {
		if received[k] != 1 {
			t.Fatalf("missing %q in %v", k, received)
		}
	}
}

func TestTCPOrderingAndLargePayload(t *testing.T) {
	a, b, _ := newTCPPair(t, TCPConfig{})

	var mu sync.Mutex
	var lens []int
	a.SetHandler(func(Message) {})
	b.SetHandler(func(m Message) {
		mu.Lock()
		lens = append(lens, len(m.Payload))
		mu.Unlock()
	})

	sizes := []int{0, 1, 1 << 10, 1 << 16, 3}
	for _, n := range sizes {
		if err := a.Send(1, "blob", make([]byte, n)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(lens) == len(sizes)
	})
	mu.Lock()
	defer mu.Unlock()
	for i, n := range sizes {
		if lens[i] != n {
			t.Fatalf("payload %d has size %d, want %d (order/framing broken)", i, lens[i], n)
		}
	}
}

// bindRegistry binds e's traffic counters to a fresh registry, as a
// locality does with its own, and returns it.
func bindRegistry(e Endpoint) *metrics.Registry {
	reg := metrics.NewRegistry()
	e.SetMetrics(reg)
	return reg
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timeout waiting for condition")
		}
		time.Sleep(time.Millisecond)
	}
}
