package backoff

import (
	"math/rand"
	"testing"
	"time"
)

// TestJitterSequenceIsTheSeedsSequence: the delays of a timer are the
// draws of rand.NewSource(seed) from its first value on, whenever the
// source is made — Reset and Saturate in between move the window, not
// the sequence.
func TestJitterSequenceIsTheSeedsSequence(t *testing.T) {
	const base, max = time.Millisecond, 40 * time.Millisecond
	for _, seed := range []int64{0, 1, 42, -7} {
		ref := rand.New(rand.NewSource(seed))
		b := New(base, max, seed)
		cur := base
		for i := 0; i < 40; i++ {
			switch i {
			case 13:
				b.Reset()
				cur = base
			case 29:
				b.Saturate()
				cur = max
			}
			want := cur/2 + time.Duration(ref.Int63n(int64(cur)))
			got := b.next()
			if got != want {
				t.Fatalf("seed %d, draw %d: delay %v, want %v", seed, i, got, want)
			}
			if got < cur/2 || got >= cur/2+cur {
				t.Fatalf("seed %d, draw %d: delay %v outside [%v, %v)", seed, i, got, cur/2, cur/2+cur)
			}
			if cur *= 2; cur > max {
				cur = max
			}
		}
	}
}

// TestNewAllocatesNoSource: a timer that never draws — the request path
// of jobs.Client — costs its own struct and no 607-word source.
func TestNewAllocatesNoSource(t *testing.T) {
	var sink *Timer
	allocs := testing.AllocsPerRun(100, func() { sink = New(time.Millisecond, time.Second, 9) })
	if allocs > 1 {
		t.Fatalf("New allocates %v objects, want the Timer alone", allocs)
	}
	if sink.rng != nil {
		t.Fatal("New seeded a source")
	}
}

func TestNewRejectsBadRange(t *testing.T) {
	for _, c := range [][2]time.Duration{{0, time.Second}, {time.Second, time.Millisecond}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%v, %v) did not panic", c[0], c[1])
				}
			}()
			New(c[0], c[1], 1)
		}()
	}
}
