package chaos

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"allscale/internal/metrics"
	"allscale/internal/transport"
)

// harness builds a 2-endpoint in-process fabric with rank 0 wrapped in
// a chaos layer; the returned recv counter counts frames arriving at
// rank 1.
func harness(t *testing.T, ctl *Controller, cfg Config) (*Endpoint, *atomic.Int64, func()) {
	t.Helper()
	fab := transport.NewFabric(2)
	ep := Wrap(fab.Endpoint(0), ctl, cfg)
	var recv atomic.Int64
	ep.SetHandler(func(transport.Message) {})
	fab.Endpoint(1).SetHandler(func(transport.Message) { recv.Add(1) })
	fab.Start()
	return ep, &recv, func() {
		ep.Close()
		fab.Close()
	}
}

// faultLog runs n serial sends through a fresh chaos endpoint and
// returns the injected-fault sequence as strings. Serial sends make
// the PRNG draw order a pure function of the seed.
func faultLog(t *testing.T, seed int64, n int) []string {
	t.Helper()
	ep, _, done := harness(t, nil, Config{Seed: seed, Drop: 0.2, Dup: 0.2, Delay: 0.2})
	defer done()
	var mu sync.Mutex
	var log []string
	ep.OnFault(func(f Fault) {
		mu.Lock()
		log = append(log, fmt.Sprintf("%s:%s:%v", f.Kind, f.Fault, f.Delay))
		mu.Unlock()
	})
	for i := 0; i < n; i++ {
		ep.Send(1, "k", []byte{byte(i)})
	}
	mu.Lock()
	defer mu.Unlock()
	return append([]string(nil), log...)
}

func TestSameSeedSameFaults(t *testing.T) {
	a := faultLog(t, 42, 400)
	b := faultLog(t, 42, 400)
	if len(a) == 0 {
		t.Fatal("no faults injected at 20% rates over 400 sends")
	}
	if len(a) != len(b) {
		t.Fatalf("fault counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault %d differs: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestDifferentSeedDifferentFaults(t *testing.T) {
	a := faultLog(t, 1, 400)
	b := faultLog(t, 2, 400)
	if len(a) == len(b) {
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("seeds 1 and 2 injected identical fault sequences")
		}
	}
}

func TestDropLosesFrames(t *testing.T) {
	reg := metrics.NewRegistry()
	ep, recv, done := harness(t, nil, Config{Drop: 1})
	defer done()
	ep.SetMetrics(reg)
	for i := 0; i < 10; i++ {
		if err := ep.Send(1, "k", []byte("x")); err != nil {
			t.Fatalf("dropped send must look accepted, got %v", err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if got := recv.Load(); got != 0 {
		t.Fatalf("received %d frames through a 100%% lossy link", got)
	}
	if got := reg.Counter(MetricDrops).Value(); got != 10 {
		t.Fatalf("drop counter = %d, want 10", got)
	}
}

func TestDupDeliversTwice(t *testing.T) {
	reg := metrics.NewRegistry()
	ep, recv, done := harness(t, nil, Config{Dup: 1})
	defer done()
	ep.SetMetrics(reg)
	for i := 0; i < 10; i++ {
		ep.Send(1, "k", []byte("x"))
	}
	deadline := time.Now().Add(2 * time.Second)
	for recv.Load() < 20 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := recv.Load(); got != 20 {
		t.Fatalf("received %d frames, want 20 (each duplicated)", got)
	}
	if got := reg.Counter(MetricDups).Value(); got != 10 {
		t.Fatalf("dup counter = %d, want 10", got)
	}
}

func TestDelayStillDelivers(t *testing.T) {
	reg := metrics.NewRegistry()
	ep, recv, done := harness(t, nil, Config{Delay: 1, MaxDelay: 5 * time.Millisecond})
	defer done()
	ep.SetMetrics(reg)
	for i := 0; i < 10; i++ {
		ep.Send(1, "k", []byte("x"))
	}
	deadline := time.Now().Add(2 * time.Second)
	for recv.Load() < 10 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := recv.Load(); got != 10 {
		t.Fatalf("received %d delayed frames, want 10", got)
	}
	if got := reg.Counter(MetricDelays).Value(); got != 10 {
		t.Fatalf("delay counter = %d, want 10", got)
	}
}

func TestPartitionBlockAndHeal(t *testing.T) {
	ctl := NewController()
	reg := metrics.NewRegistry()
	ep, recv, done := harness(t, ctl, Config{})
	defer done()
	ep.SetMetrics(reg)

	ctl.Block(0, 1)
	for i := 0; i < 5; i++ {
		if err := ep.Send(1, "k", []byte("x")); err != nil {
			t.Fatalf("partitioned send must look accepted, got %v", err)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if got := recv.Load(); got != 0 {
		t.Fatalf("received %d frames across an active partition", got)
	}
	if got := reg.Counter(MetricPartitionDrops).Value(); got != 5 {
		t.Fatalf("partition-drop counter = %d, want 5", got)
	}

	ctl.Heal(0, 1)
	for i := 0; i < 5; i++ {
		ep.Send(1, "k", []byte("x"))
	}
	deadline := time.Now().Add(2 * time.Second)
	for recv.Load() < 5 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := recv.Load(); got != 5 {
		t.Fatalf("received %d frames after heal, want 5", got)
	}
}

func TestCloseWaitsForDelayedFrames(t *testing.T) {
	fab := transport.NewFabric(2)
	ep := Wrap(fab.Endpoint(0), nil, Config{Delay: 1, MaxDelay: 10 * time.Millisecond})
	ep.SetHandler(func(transport.Message) {})
	fab.Endpoint(1).SetHandler(func(transport.Message) {})
	fab.Start()
	for i := 0; i < 20; i++ {
		ep.Send(1, "k", []byte("x"))
	}
	if err := ep.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	fab.Close()
}

// TestCloseRacesLateSend: senders that do not know the endpoint is
// closing — resend timers of the RPC layer are such — keep calling Send
// while Close waits for the delayed frames. A delayed frame is either
// counted before Close waits or not sent; the parent commit could add
// it to the wait group under Close's Wait (a data race under -race).
func TestCloseRacesLateSend(t *testing.T) {
	for round := 0; round < 50; round++ {
		fab := transport.NewFabric(2)
		ep := Wrap(fab.Endpoint(0), nil, Config{Delay: 1, MaxDelay: 50 * time.Microsecond})
		ep.SetHandler(func(transport.Message) {})
		fab.Endpoint(1).SetHandler(func(transport.Message) {})
		fab.Start()
		stop := make(chan struct{})
		var senders sync.WaitGroup
		for g := 0; g < 4; g++ {
			senders.Add(1)
			go func() {
				defer senders.Done()
				for {
					select {
					case <-stop:
						return
					default:
						ep.Send(1, "k", []byte("x"))
					}
				}
			}()
		}
		time.Sleep(200 * time.Microsecond)
		if err := ep.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		close(stop)
		senders.Wait()
		fab.Close()
	}
}
