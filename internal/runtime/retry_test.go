package runtime

import (
	"bytes"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"allscale/internal/chaos"
	"allscale/internal/transport"
	"allscale/internal/wire"
)

// filterEndpoint wraps a fabric endpoint with a programmable outbound
// filter: sends for which drop returns true vanish (the sender still
// sees success, like a lossy link).
type filterEndpoint struct {
	transport.Endpoint
	drop func(to int, kind string, payload []byte) bool
}

func (f *filterEndpoint) Send(to int, kind string, payload []byte) error {
	if f.drop != nil && f.drop(to, kind, payload) {
		return nil
	}
	return f.Endpoint.Send(to, kind, payload)
}

// lossySystem builds a 2-locality system where rank 1's outbound
// frames pass through drop. Returns the system and the underlying
// fabric (started by the caller after handler registration — via
// sys.Start, which is a no-op for provided endpoints, plus fab.Start).
func lossySystem(t *testing.T, drop func(to int, kind string, payload []byte) bool) (*System, func()) {
	t.Helper()
	fab := transport.NewFabric(2)
	s := NewSystemOver([]transport.Endpoint{
		fab.Endpoint(0),
		&filterEndpoint{Endpoint: fab.Endpoint(1), drop: drop},
	})
	start := func() { fab.Start() }
	t.Cleanup(func() {
		s.Close()
		fab.Close()
	})
	return s, start
}

// TestRetryReplaysLostReply is the core exactly-once contract: the
// server executes a counting handler once, loses the reply frame, and
// the client's retry is answered byte-identically from the dedup
// cache without re-executing the handler.
func TestRetryReplaysLostReply(t *testing.T) {
	var lostReplies atomic.Int64
	dropFirstReply := func(to int, kind string, _ []byte) bool {
		return kind == "rpc.rsp" && lostReplies.Add(1) == 1
	}
	s, start := lossySystem(t, dropFirstReply)
	var executions atomic.Int64
	s.Locality(1).Handle("count", func(int, []byte) ([]byte, error) {
		return wire.Encode(int(executions.Add(1)))
	})
	start()

	var got int
	err := s.Locality(0).Call(1, "count", nil, &got,
		WithDeadline(5*time.Second), WithRetries(5, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("reply = %d, want 1 (the first and only execution)", got)
	}
	if n := executions.Load(); n != 1 {
		t.Fatalf("handler executed %d times, want exactly 1", n)
	}
	if v := s.Locality(0).Metrics().Counter(MetricRPCRetries).Value(); v == 0 {
		t.Fatal("client recorded no retries despite a lost reply")
	}
	if v := s.Locality(1).Metrics().Counter(MetricRPCDedupReplays).Value(); v == 0 {
		t.Fatal("server recorded no dedup replay")
	}
	if n := s.Locality(0).PendingCalls(); n != 0 {
		t.Fatalf("%d calls stranded after completion", n)
	}
}

// TestReplayIsByteIdentical intercepts the response frames themselves:
// the replayed frame must equal the original byte for byte.
func TestReplayIsByteIdentical(t *testing.T) {
	var mu sync.Mutex
	var replies [][]byte
	var dropped bool
	tap := func(to int, kind string, payload []byte) bool {
		if kind != "rpc.rsp" {
			return false
		}
		mu.Lock()
		defer mu.Unlock()
		replies = append(replies, append([]byte(nil), payload...))
		if !dropped {
			dropped = true
			return true // lose the first reply; the retry replays it
		}
		return false
	}
	s, start := lossySystem(t, tap)
	s.Locality(1).Handle("echo", func(_ int, body []byte) ([]byte, error) {
		return body, nil
	})
	start()

	var out string
	err := s.Locality(0).Call(1, "echo", "payload", &out,
		WithDeadline(5*time.Second), WithRetries(5, 50*time.Millisecond))
	if err != nil || out != "payload" {
		t.Fatalf("call: %v, out=%q", err, out)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(replies) < 2 {
		t.Fatalf("captured %d reply frames, want >= 2", len(replies))
	}
	if !bytes.Equal(replies[0], replies[1]) {
		t.Fatalf("replayed reply differs from original:\n%x\n%x", replies[0], replies[1])
	}
}

// TestDedupEvictionByAck: sequential retryable calls carry an
// advancing ack watermark, so the server's window stays at one entry
// no matter how many calls complete (the retention window is huge, so
// age eviction cannot explain it).
func TestDedupEvictionByAck(t *testing.T) {
	s := newTestSystem(t, 2)
	s.Locality(1).SetDedupWindow(time.Hour)
	s.Locality(1).Handle("noop", func(int, []byte) ([]byte, error) { return nil, nil })
	s.Start()
	for i := 0; i < 50; i++ {
		if err := s.Locality(0).Call(1, "noop", nil, nil,
			WithDeadline(5*time.Second), WithRetries(3, time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	// Each call's request acks all completed predecessors, so at most
	// the latest entry survives.
	if n := s.Locality(1).DedupSize(); n > 1 {
		t.Fatalf("dedup window holds %d entries after 50 acked calls, want <= 1", n)
	}
}

// TestDuplicateBehindWatermarkIsDropped: a duplicate frame that a
// reordering fabric delivers after a later call's watermark has evicted
// its entry is not a new call — the caller resolved it long ago — and
// must not run the handler a second time.
func TestDuplicateBehindWatermarkIsDropped(t *testing.T) {
	d := newDedupState(time.Hour)
	now := time.Now()
	if _, replay, inflight := d.observe(0, 7, 6, now); replay || inflight {
		t.Fatal("first arrival of call 7 not admitted")
	}
	d.complete(0, 7, []byte("rsp"), now)
	if rsp, replay, _ := d.observe(0, 7, 6, now); !replay || string(rsp) != "rsp" {
		t.Fatal("duplicate inside the window not replayed")
	}
	// Call 8 acks everything up to 7: the entry goes.
	if _, replay, inflight := d.observe(0, 8, 7, now); replay || inflight || d.size() != 1 {
		t.Fatalf("call 8 not admitted or call 7 not evicted (window %d)", d.size())
	}
	if _, replay, inflight := d.observe(0, 7, 6, now); replay || !inflight {
		t.Fatal("duplicate of call 7 behind the watermark was admitted as a new call")
	}
	if d.size() != 1 {
		t.Fatalf("dropped duplicate left an entry (window %d)", d.size())
	}
}

// TestDedupEvictionByAge: with acks withheld (distinct caller IDs stay
// outstanding), entries may only leave by age.
func TestDedupEvictionByAge(t *testing.T) {
	s := newTestSystem(t, 2)
	loc := s.Locality(1)
	loc.SetDedupWindow(50 * time.Millisecond)
	s.Start()
	now := time.Now()
	// Drive the window directly: register and complete entries with no
	// ack advance (ack=0), then observe later and check the sweep.
	for id := uint64(1); id <= 10; id++ {
		loc.dedup.observe(0, id, 0, now)
		loc.dedup.complete(0, id, []byte("r"), now)
	}
	if n := loc.DedupSize(); n != 10 {
		t.Fatalf("window = %d entries, want 10", n)
	}
	// Past the window (and past window/4 since the last sweep), the
	// next observe evicts all aged completed entries.
	later := now.Add(time.Second)
	loc.dedup.observe(0, 11, 0, later)
	if n := loc.DedupSize(); n != 1 {
		t.Fatalf("window = %d entries after age sweep, want 1 (the new call)", n)
	}
}

// TestConcurrentDuplicatesExecuteOnce hammers a counting handler
// through a duplicating link under -race: every request frame is sent
// twice, yet each call's handler must run exactly once.
func TestConcurrentDuplicatesExecuteOnce(t *testing.T) {
	fab := transport.NewFabric(2)
	dup := chaos.Wrap(fab.Endpoint(0), nil, chaos.Config{Seed: 7, Dup: 1})
	s := NewSystemOver([]transport.Endpoint{dup, fab.Endpoint(1)})
	t.Cleanup(func() {
		s.Close()
		fab.Close()
	})
	var executions atomic.Int64
	s.Locality(1).Handle("count", func(int, []byte) ([]byte, error) {
		executions.Add(1)
		return nil, nil
	})
	fab.Start()

	const calls = 64
	var wg sync.WaitGroup
	errs := make(chan error, calls)
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Locality(0).Call(1, "count", nil, nil,
				WithDeadline(10*time.Second), WithRetries(3, time.Second)); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := executions.Load(); n != calls {
		t.Fatalf("handler executed %d times for %d calls", n, calls)
	}
	sup := s.Locality(1).Metrics().Counter(MetricRPCDedupSuppressed).Value()
	rep := s.Locality(1).Metrics().Counter(MetricRPCDedupReplays).Value()
	if sup+rep == 0 {
		t.Fatal("no duplicate was suppressed or replayed — dup link ineffective?")
	}
}

// TestCallTimeoutOnBlackHole: a destination that never receives the
// request fails the call with ErrCallTimeout once the budget is spent,
// leaving no stranded entry behind.
func TestCallTimeoutOnBlackHole(t *testing.T) {
	fab := transport.NewFabric(2)
	blackhole := &filterEndpoint{Endpoint: fab.Endpoint(0),
		drop: func(_ int, kind string, _ []byte) bool { return strings.HasPrefix(kind, "rpc.req") }}
	s := NewSystemOver([]transport.Endpoint{blackhole, fab.Endpoint(1)})
	t.Cleanup(func() {
		s.Close()
		fab.Close()
	})
	s.Locality(1).Handle("noop", func(int, []byte) ([]byte, error) { return nil, nil })
	fab.Start()

	start := time.Now()
	err := s.Locality(0).Call(1, "noop", nil, nil,
		WithDeadline(300*time.Millisecond), WithRetries(3, 50*time.Millisecond))
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("err = %v, want ErrCallTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("timeout took %v, deadline was 300ms", elapsed)
	}
	if n := s.Locality(0).PendingCalls(); n != 0 {
		t.Fatalf("%d calls stranded after timeout", n)
	}
	if v := s.Locality(0).Metrics().Counter(MetricRPCTimeouts).Value(); v != 1 {
		t.Fatalf("timeout counter = %d, want 1", v)
	}
	if v := s.Locality(0).Metrics().Counter(MetricRPCRetries).Value(); v == 0 {
		t.Fatal("no retries recorded before the timeout")
	}
}

// TestSendErrorAccounting: every one-way failure path must count into
// rpc.errors (historically only calls did).
func TestSendErrorAccounting(t *testing.T) {
	s := newTestSystem(t, 2)
	s.Locality(1).HandleOneWay("ow", func(int, []byte) {})
	s.Start()
	loc := s.Locality(0)
	errsBefore := loc.Metrics().Counter(MetricRPCErrors).Value()

	if err := loc.Send(1, "ow", "x"); err != nil {
		t.Fatal(err)
	}
	if v := loc.Metrics().Counter(MetricRPCOneWays).Value(); v != 1 {
		t.Fatalf("oneway counter = %d, want 1", v)
	}
	if v := loc.Metrics().Counter(MetricRPCErrors).Value(); v != errsBefore {
		t.Fatalf("successful send bumped rpc.errors to %d", v)
	}

	// Missing local handler.
	if err := loc.Send(0, "missing", "x"); err == nil {
		t.Fatal("send to unregistered one-way must fail")
	}
	// Dead destination.
	loc.SetPeer(1, Dead, 0)
	if err := loc.Send(1, "ow", "x"); err == nil {
		t.Fatal("send to dead rank must fail")
	}
	if v := loc.Metrics().Counter(MetricRPCErrors).Value(); v != errsBefore+2 {
		t.Fatalf("rpc.errors = %d, want %d (both failures counted)", v, errsBefore+2)
	}
}

// TestFencingRejectsStaleEpoch: after a rank is fenced, frames it sent
// under its old incarnation epoch are rejected at dispatch and counted.
func TestFencingRejectsStaleEpoch(t *testing.T) {
	s := newTestSystem(t, 3)
	var served atomic.Int64
	s.Locality(1).Handle("noop", func(int, []byte) ([]byte, error) {
		served.Add(1)
		return nil, nil
	})
	s.Start()

	// Sanity: rank 2 can reach rank 1.
	if err := s.Locality(2).Call(1, "noop", nil, nil); err != nil {
		t.Fatal(err)
	}
	// Rank 1 fences rank 2 (as the recovery coordinator would after
	// ping exhaustion). Rank 2 itself never learns — a partitioned
	// survivor — and keeps sending under its stale epoch.
	s.Locality(1).SetPeer(2, Dead, s.Locality(1).Epoch()+1)
	fut := s.Locality(2).CallAsync(1, "noop", nil)
	time.Sleep(50 * time.Millisecond)
	if n := served.Load(); n != 1 {
		t.Fatalf("handler served %d requests, want 1 (fenced frame rejected)", n)
	}
	if v := s.Locality(1).Metrics().Counter(MetricRPCFencedFrames).Value(); v == 0 {
		t.Fatal("no fenced frame counted")
	}
	// The fenced rank's call must not hang forever when bounded.
	err := s.Locality(2).Call(1, "noop", nil, nil,
		WithDeadline(200*time.Millisecond), WithRetries(1, 100*time.Millisecond))
	if !errors.Is(err, ErrCallTimeout) {
		t.Fatalf("bounded call through fence: err = %v, want ErrCallTimeout", err)
	}
	_ = fut
}

// TestSuspectLifecycle: suspicion is reversible and independent of
// death; death clears it.
func TestSuspectLifecycle(t *testing.T) {
	s := newTestSystem(t, 3)
	s.Start()
	loc := s.Locality(0)
	if loc.Peer(1) == Suspect {
		t.Fatal("fresh rank already suspect")
	}
	loc.SetPeer(1, Suspect, 0)
	if loc.Peer(1) != Suspect {
		t.Fatal("SetPeer(Suspect) had no effect")
	}
	loc.SetPeer(1, Member, 0)
	if loc.Peer(1) == Suspect {
		t.Fatal("SetPeer(Member) had no effect")
	}
	loc.SetPeer(2, Suspect, 0)
	loc.SetPeer(2, Dead, 0)
	if loc.Peer(2) == Suspect {
		t.Fatal("death must clear suspicion (dead beats suspect)")
	}
	if loc.Peer(2) != Dead {
		t.Fatal("SetPeer(Dead) had no effect")
	}
	// Self-suspicion is ignored.
	loc.SetPeer(0, Suspect, 0)
	if loc.Peer(0) == Suspect {
		t.Fatal("a rank must not suspect itself")
	}
}
