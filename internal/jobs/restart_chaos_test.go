package jobs

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"allscale/internal/core"
)

// TestMain doubles as the chaos daemon: with ALLSCALED_TEST_DAEMON=1
// the test binary re-execs into a durable allscaled-style daemon, so
// TestRestartChaos can SIGKILL a real process mid-run and restart it
// against the same state directory.
func TestMain(m *testing.M) {
	if os.Getenv("ALLSCALED_TEST_DAEMON") == "1" {
		runChaosDaemon()
		return
	}
	os.Exit(m.Run())
}

// runChaosDaemon serves a durable job service on a fixed address until
// SIGTERM, then suspends restart-style (mirroring cmd/allscaled with
// -state-dir). A SIGKILL from the parent is the crash under test.
func runChaosDaemon() {
	addr := os.Getenv("ALLSCALED_TEST_ADDR")
	dir := os.Getenv("ALLSCALED_TEST_STATE")
	sys := core.NewSystem(core.Config{Localities: 2, Workers: 2})
	w := RegisterWorkloads(sys, WorkloadConfig{})
	sys.Start()
	svc, err := Open(sys, w, Config{
		MaxActive:    8,
		MaxBacklog:   4096,
		DefaultQuota: Quota{MaxPending: 1024},
		StateDir:     dir,
		Fsync:        FsyncEvery,
		// A few dozen jobs per compaction: the SIGKILL lands among
		// compactions that run while clients submit.
		CompactBytes: 8 << 10,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos daemon: open: %v\n", err)
		os.Exit(1)
	}
	// Both incarnations bind the same address; after a SIGKILL the old
	// socket can linger briefly, so binding retries.
	var ln net.Listener
	deadline := time.Now().Add(15 * time.Second)
	for {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "chaos daemon: listen: %v\n", err)
			os.Exit(1)
		}
		time.Sleep(50 * time.Millisecond)
	}
	shutdown := make(chan os.Signal, 1)
	signal.Notify(shutdown, syscall.SIGTERM)
	srv := Serve(svc, ln, func() { shutdown <- syscall.SIGTERM })
	rec := svc.Recovery()
	fmt.Fprintf(os.Stderr, "chaos daemon %d: serving %s (recovered: %d terminal, %d re-admitted, torn tail %v)\n",
		os.Getpid(), ln.Addr(), rec.Terminal, rec.Readmitted, rec.TornTail)
	<-shutdown
	if err := svc.Suspend(10 * time.Second); err != nil {
		fmt.Fprintf(os.Stderr, "chaos daemon: suspend: %v\n", err)
	}
	srv.Close()
	sys.Close()
	os.Exit(0)
}

func startChaosDaemon(t *testing.T, addr, dir string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(),
		"ALLSCALED_TEST_DAEMON=1",
		"ALLSCALED_TEST_ADDR="+addr,
		"ALLSCALED_TEST_STATE="+dir,
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start chaos daemon: %v", err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return cmd
}

func waitDaemonUp(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("chaos daemon never came up on %s: %v", addr, err)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestRestartChaos is the crash-restart soak: 8 clients submit a
// stream of jobs (with occasional cancels) over TCP while the daemon
// is SIGKILLed mid-run and restarted on the same state directory.
// Asserts exactly-once admission (no duplicated or lost jobs), zero
// failures, and that every terminal state a client observed — done or
// cancelled — is exactly what the final registry reports, i.e. no
// cancelled job is resurrected by replay. ALLSCALED_CHAOS_JOBS scales
// the soak (CI runs 1000); the default keeps local runs quick.
func TestRestartChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess soak")
	}
	total := 240
	if s := os.Getenv("ALLSCALED_CHAOS_JOBS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 {
			t.Fatalf("ALLSCALED_CHAOS_JOBS=%q: %v", s, err)
		}
		total = n
	}
	const clients = 8
	perClient := total / clients
	if perClient == 0 {
		perClient = 1
	}
	total = perClient * clients

	// CI points this at a workspace path so the journal can be
	// uploaded as an artifact when the test fails.
	dir := os.Getenv("ALLSCALED_CHAOS_DIR")
	if dir == "" {
		dir = t.TempDir()
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}

	// Reserve a fixed address for both daemon incarnations.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	d1 := startChaosDaemon(t, addr, dir)
	waitDaemonUp(t, addr)

	type observed struct {
		id    uint64
		state string
	}
	var submitted atomic.Int64
	results := make([][]observed, clients)
	errs := make(chan error, clients)
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cli, err := Dial(addr)
			if err != nil {
				errs <- fmt.Errorf("client %d: dial: %v", ci, err)
				return
			}
			defer cli.Close()
			cli.RetryBudget = 4 * time.Minute
			tenant := fmt.Sprintf("chaos-%d", ci)
			for k := 0; k < perClient; k++ {
				id, err := cli.Submit(tenant, FamilyPFor,
					PForParams{Levels: 3, Spin: 32, Seed: uint64(ci*100000 + k)})
				if err != nil {
					errs <- fmt.Errorf("client %d: submit %d: %v", ci, k, err)
					return
				}
				submitted.Add(1)
				if k%9 == 4 {
					// Cancel a slice of the stream; losing the race to
					// completion is fine — Wait reports what actually
					// happened and the final audit holds it to that.
					cli.Cancel(id)
				}
				st, err := cli.Wait(id)
				if err != nil {
					errs <- fmt.Errorf("client %d: wait %d: %v", ci, id, err)
					return
				}
				results[ci] = append(results[ci], observed{id, st.State})
			}
		}(ci)
	}

	// Conductor: SIGKILL the daemon once a third of the stream is in,
	// then restart it on the same state directory.
	killAt := int64(total / 3)
	killDeadline := time.Now().Add(3 * time.Minute)
	for submitted.Load() < killAt && time.Now().Before(killDeadline) {
		time.Sleep(2 * time.Millisecond)
	}
	t.Logf("chaos: SIGKILL daemon %d after %d/%d submits", d1.Process.Pid, submitted.Load(), total)
	d1.Process.Kill()
	d1.Wait()
	d2 := startChaosDaemon(t, addr, dir)
	waitDaemonUp(t, addr)

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	list, err := cli.List()
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[uint64]string, len(list))
	for _, js := range list {
		byID[js.ID] = js.State
		if js.State == "failed" {
			t.Errorf("job %d failed across restart: %s", js.ID, js.Error)
		}
	}
	// Exactly-once: every submit produced one distinct job, and the
	// registry holds exactly the submitted set — nothing duplicated by
	// retries, nothing lost by the crash.
	if len(list) != total {
		t.Errorf("final registry has %d jobs, want %d", len(list), total)
	}
	seen := make(map[uint64]bool, total)
	for ci := range results {
		for _, ob := range results[ci] {
			if seen[ob.id] {
				t.Errorf("job ID %d returned for two different submissions", ob.id)
			}
			seen[ob.id] = true
			// Terminal states are journaled before they are observable,
			// so what a client saw is what replay must preserve — a
			// cancelled job must never be resurrected.
			if got, ok := byID[ob.id]; !ok || got != ob.state {
				t.Errorf("job %d: client observed %q, final registry has %q", ob.id, ob.state, got)
			}
		}
	}

	// Graceful SIGTERM on the survivor exercises the suspend path with
	// an all-terminal registry.
	d2.Process.Signal(syscall.SIGTERM)
	exited := make(chan error, 1)
	go func() { exited <- d2.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Errorf("daemon exit after SIGTERM: %v", err)
		}
	case <-time.After(60 * time.Second):
		d2.Process.Kill()
		t.Error("daemon did not exit on SIGTERM")
	}
	// One on-disk form: whatever the crash and the compactions left
	// behind, the suspended daemon's registry is one journal file.
	if names := dirNames(t, dir); len(names) != 1 || !isJournalName(names[0]) {
		t.Errorf("state directory holds %v, want exactly one journal.<g>.wal", names)
	}
}
