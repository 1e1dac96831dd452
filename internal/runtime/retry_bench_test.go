package runtime

import (
	"testing"
	"time"
)

// benchSystem is a 2-locality inproc system with an echo method, the
// substrate of the retry-path overhead measurements (EXPERIMENTS.md
// E11): the fault-free hot path must not pay noticeably for the
// supervision machinery.
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

// BenchmarkCallPlain is the PR 4 baseline shape: an unsupervised
// remote call (no deadline, no retries, no dedup).
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

// BenchmarkCallSupervised measures the fault-free cost of the full
// delivery machinery: supervision timer (one AfterFunc + one Stop),
// dedup registration at the server, and the ack watermark — nothing
// ever retries here.
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

// BenchmarkCallSupervisedIdempotent: supervision without the dedup
// window (the data-plane shape when a profile opts in).
func BenchmarkCallSupervisedIdempotent(b *testing.B) {
	s := benchSystem(b)
	loc := s.Locality(0)
	opts := []CallOption{
		WithDeadline(30 * time.Second),
		WithRetries(5, 5*time.Second),
		WithIdempotent(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out int
		if err := loc.Call(1, "echo", i, &out, opts...); err != nil {
			b.Fatal(err)
		}
	}
}
