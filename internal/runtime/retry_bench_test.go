package runtime

import (
	"testing"
	"time"
)

// benchSystem is a 2-locality inproc system with an echo method, the
// substrate of the call-path overhead measurements (EXPERIMENTS.md
// E11, E41): the fault-free hot path must not pay noticeably for the
// link's delivery contract.
func benchSystem(b *testing.B) *System {
	b.Helper()
	s := NewSystem(2)
	s.Locality(1).Handle("echo", func(_ int, body []byte) ([]byte, error) {
		return body, nil
	})
	s.Start()
	b.Cleanup(func() { s.Close() })
	return s
}

// BenchmarkCallPlain is the baseline shape: a remote call without a
// deadline.
func BenchmarkCallPlain(b *testing.B) {
	s := benchSystem(b)
	loc := s.Locality(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out int
		if err := loc.Call(1, "echo", i, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallSupervised measures the fault-free cost of a call with a
// deadline, the control plane's shape: the link's timer checks the
// deadline, and nothing ever resends here.
func BenchmarkCallSupervised(b *testing.B) {
	s := benchSystem(b)
	loc := s.Locality(0)
	opts := []CallOption{
		WithDeadline(30 * time.Second),
		WithRetries(5, 5*time.Second),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out int
		if err := loc.Call(1, "echo", i, &out, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCallAckOnly: a call answered by the link's ack alone, the
// shape of a ship, a remote fulfilment and an unpin.
func BenchmarkCallAckOnly(b *testing.B) {
	s := benchSystem(b)
	loc := s.Locality(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loc.CallAsync(1, "echo", i, AckOnly()).Wait(); err != nil {
			b.Fatal(err)
		}
	}
}
