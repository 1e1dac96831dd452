package simnet

import "testing"

func TestSendLatencyComponents(t *testing.T) {
	cfg := DefaultConfig(4)
	c := New(cfg)
	var delivered Time
	c.Send(0, 1, 1000, func() { delivered = c.Eng.Now() })
	c.Eng.Run()
	// Expected: 2·MsgCPU + serialization + base + 1 hop (same group).
	want := Time(2*cfg.MsgCPU + 1000/cfg.LinkBandwidth + cfg.BaseLatency + cfg.HopLatency)
	eps := Time(1e-12)
	if delivered < want-eps || delivered > want+eps {
		t.Fatalf("delivered at %v, want %v", delivered, want)
	}
	if st := c.Stats(); st.Msgs != 1 || st.Bytes != 1000 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSelfSendIsCheap(t *testing.T) {
	c := New(DefaultConfig(2))
	var at Time
	c.Send(1, 1, 1<<20, func() { at = c.Eng.Now() })
	c.Eng.Run()
	if at > 1e-6 {
		t.Fatalf("self send took %v", at)
	}
}

func TestHopsFatTree(t *testing.T) {
	c := New(DefaultConfig(64))
	if c.hops(3, 3) != 0 {
		t.Fatal("self hops must be 0")
	}
	if c.hops(0, 1) != 1 {
		t.Fatal("same leaf group must be 1")
	}
	if got := c.hops(0, 17); got != 3 { // different groups of 16
		t.Fatalf("cross-group hops = %d, want 3", got)
	}
}

func TestCrossGroupMessagesAreSlower(t *testing.T) {
	c := New(DefaultConfig(64))
	var near, far Time
	c.Send(0, 1, 100, func() { near = c.Eng.Now() })
	c.Eng.Run()
	c2 := New(DefaultConfig(64))
	c2.Send(0, 40, 100, func() { far = c2.Eng.Now() })
	c2.Eng.Run()
	if far <= near {
		t.Fatalf("far %v must exceed near %v", far, near)
	}
}

func TestExecFlopsDuration(t *testing.T) {
	cfg := DefaultConfig(1)
	c := New(cfg)
	var at Time
	work := 1e9 // 1 GFLOP on one core
	c.ExecFlops(0, work, func() { at = c.Eng.Now() })
	c.Eng.Run()
	coreRate := cfg.NodeFlops / float64(cfg.CoresPerNode)
	want := Time(work / coreRate)
	if at != want {
		t.Fatalf("exec took %v, want %v", at, want)
	}
}

func TestExecParallelUsesWholeNode(t *testing.T) {
	cfg := DefaultConfig(1)
	c := New(cfg)
	var at Time
	c.ExecParallelFlops(0, 1e9, func() { at = c.Eng.Now() })
	c.Eng.Run()
	want := Time(1e9 / cfg.NodeFlops)
	if at != want {
		t.Fatalf("parallel exec took %v, want %v", at, want)
	}
}

func TestCoresSaturate(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.CoresPerNode = 2
	c := New(cfg)
	var finished int
	var last Time
	for i := 0; i < 4; i++ {
		c.ExecSeconds(0, 1, func() { finished++; last = c.Eng.Now() })
	}
	c.Eng.Run()
	if finished != 4 || last != 2 {
		t.Fatalf("finished=%d last=%v (want queueing to 2s)", finished, last)
	}
}

func TestBroadcastReachesAll(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 64} {
		c := New(DefaultConfig(n))
		done := false
		c.Broadcast(0, 4096, func() { done = true })
		c.Eng.Run()
		if !done {
			t.Fatalf("n=%d: broadcast incomplete", n)
		}
		if n > 1 && c.Stats().Msgs < uint64(n-1) {
			t.Fatalf("n=%d: only %d messages", n, c.Stats().Msgs)
		}
	}
}

func TestBroadcastIsLogDepth(t *testing.T) {
	// Binomial broadcast over 64 nodes must complete much faster than
	// 63 sequential latencies.
	c := New(DefaultConfig(64))
	var at Time
	c.Broadcast(0, 64, func() { at = c.Eng.Now() })
	c.Eng.Run()
	sequential := Time(63 * c.Cfg.BaseLatency)
	if at >= sequential {
		t.Fatalf("broadcast %v not faster than sequential %v", at, sequential)
	}
}

// TestGatherAndAllreduce runs a gather next to an allreduce, modelled
// as the MPI baselines compose it: a gather to rank 0, then a
// broadcast from it.
func TestGatherAndAllreduce(t *testing.T) {
	c := New(DefaultConfig(8))
	steps := 0
	c.Gather(0, 128, func() { steps++ })
	c.Gather(0, 8, func() {
		c.Broadcast(0, 8, func() { steps++ })
	})
	c.Eng.Run()
	if steps != 2 {
		t.Fatalf("steps = %d", steps)
	}
}

func TestLogTreeDepth(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 64: 6}
	for n, want := range cases {
		if got := LogTreeDepth(n); got != want {
			t.Errorf("LogTreeDepth(%d) = %d, want %d", n, got, want)
		}
	}
}
