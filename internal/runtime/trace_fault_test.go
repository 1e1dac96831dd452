package runtime

// Fault-path tracing/metrics coverage, extending the severed-socket
// tests of fault_test.go: an RPC failed by a peer death must leave an
// error-tagged rpc.call span, and the transport's failure counters in
// the locality registry must count sends to a dead peer.

import (
	"errors"
	"testing"
	"time"

	"allscale/internal/trace"
	"allscale/internal/transport"
)

func TestPeerFailureEmitsErrorSpan(t *testing.T) {
	locs, eps := newTCPLocalities(t, 2)
	tr := trace.New(0, 1024)
	locs[0].SetTracer(tr)

	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	locs[1].Handle("block", func(from int, body []byte) ([]byte, error) {
		close(started)
		<-release
		return nil, nil
	})

	fut := locs[0].CallAsync(1, "block", struct{}{})
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("request never reached the server")
	}
	eps[1].Close() // sever the server mid-RPC

	if err := waitErr(t, fut, 5*time.Second); !errors.Is(err, ErrPeerFailed) {
		t.Fatalf("error = %v, want ErrPeerFailed", err)
	}

	// A second call to the dead peer fails its one dial,
	// exercising the send-error path as well.
	if err := waitErr(t, locs[0].CallAsync(1, "block", struct{}{}), 5*time.Second); err == nil {
		t.Fatal("call to dead peer succeeded")
	}

	tr.Stop()
	var calls, tagged int
	for _, sp := range tr.Snapshot() {
		if sp.Name != "rpc.call" {
			continue
		}
		calls++
		if sp.Err != "" {
			tagged++
		}
	}
	if calls < 2 {
		t.Fatalf("recorded %d rpc.call spans, want >= 2", calls)
	}
	if tagged < 2 {
		t.Fatalf("only %d rpc.call spans carry an error tag, want >= 2", tagged)
	}
	if n := tr.Active(); n != 0 {
		t.Fatalf("%d spans still active after the failed calls resolved", n)
	}
	if locs[0].Metrics().CounterValue(MetricRPCErrors) < 2 {
		t.Fatal("rpc.errors counter missed the failed calls")
	}
}

func TestSendErrorsToDeadPeerAreCounted(t *testing.T) {
	locs, eps := newTCPLocalities(t, 2)
	locs[1].Handle("echo", func(from int, body []byte) ([]byte, error) { return body, nil })
	reg := locs[0].Metrics()

	// Healthy traffic first.
	for i := 0; i < 3; i++ {
		if err := locs[0].Call(1, "echo", i, nil); err != nil {
			t.Fatal(err)
		}
	}
	if reg.CounterValue(transport.MetricMsgsSent) == 0 {
		t.Fatal("no traffic recorded at all")
	}
	// Then a severed peer. Whether a single call surfaces a Send error is
	// timing-dependent (a frame queued on the dying connection can be
	// failed by the link-death callback before its flush fails), so keep
	// calling until the transport has counted one.
	eps[1].Close()
	deadline := time.Now().Add(10 * time.Second)
	for reg.CounterValue(transport.MetricSendErrors) == 0 {
		if !time.Now().Before(deadline) {
			t.Fatal("send errors against a dead peer were never counted")
		}
		_ = waitErr(t, locs[0].CallAsync(1, "echo", 9), 5*time.Second)
	}
}
