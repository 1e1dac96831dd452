package jobs

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"allscale/internal/core"
)

// newDurableService boots a fresh system + service over a state
// directory — one daemon incarnation. The caller tears it down (or
// crashes it) explicitly; cleanup only backstops leaks on test failure.
func newDurableService(t *testing.T, n int, cfg Config) (*core.System, *Service) {
	t.Helper()
	sys := core.NewSystem(core.Config{Localities: n, Workers: 2, TraceCapacity: 1 << 12})
	w := RegisterWorkloads(sys, WorkloadConfig{})
	sys.Start()
	svc, err := Open(sys, w, cfg)
	if err != nil {
		sys.Close()
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() {
		svc.Close()
		sys.Close()
	})
	return sys, svc
}

// longStencil runs long enough to straggle any grace window but stays
// cancellable at every step boundary.
var longStencil = StencilParams{N: 32, Steps: 60000}

// TestRestartRecovery walks the full durable lifecycle: finished and
// cancelled jobs come back as history, a mid-run straggler and a
// queued job are re-admitted under their original IDs and re-run, and
// tenant quotas survive.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{MaxActive: 1, StateDir: dir}

	_, svc1 := newDurableService(t, 2, cfg)
	if err := svc1.RegisterTenant("t", Quota{Weight: 5, MaxPending: 32}); err != nil {
		t.Fatal(err)
	}
	doneID := mustSubmit(t, svc1, "t", FamilyPFor, PForParams{Levels: 4, Seed: 9})
	doneSt := waitState(t, svc1, doneID, Done)

	runnerID := mustSubmit(t, svc1, "t", FamilyStencil, longStencil)
	waitRunning(t, svc1, runnerID)
	queuedID := mustSubmit(t, svc1, "t", FamilyPFor, PForParams{Levels: 5, Seed: 3})
	cancelID := mustSubmit(t, svc1, "t", FamilyPFor, PForParams{Levels: 3, Seed: 4})
	if err := svc1.Cancel(cancelID); err != nil {
		t.Fatal(err)
	}
	waitState(t, svc1, cancelID, Cancelled)

	// Restart-style shutdown: the runner outlives the grace window and
	// must be preserved, not cancelled into a terminal state.
	if err := svc1.Suspend(50 * time.Millisecond); err != nil {
		t.Fatalf("suspend: %v", err)
	}
	if _, err := svc1.Submit("t", JobSpec{Family: FamilyPFor}); !errors.Is(err, ErrServerRestarting) {
		t.Fatalf("submit while restarting: %v", err)
	}

	_, svc2 := newDurableService(t, 2, cfg)
	rec := svc2.Recovery()
	if rec.Tenants != 1 || rec.Terminal != 2 || rec.Readmitted != 2 {
		t.Fatalf("recovery info: %+v", rec)
	}

	// History intact: results, states and timestamps survived.
	st, err := svc2.Status(doneID)
	if err != nil || st.State != "done" || st.Result != doneSt.Result {
		t.Fatalf("done job after restart: %+v (%v), want result %s", st, err, doneSt.Result)
	}
	if got := st.Submitted.UnixNano(); got != doneSt.Submitted.UnixNano() {
		t.Errorf("done job submit time drifted: %v vs %v", st.Submitted, doneSt.Submitted)
	}
	if st, _ := svc2.Status(cancelID); st.State != "cancelled" {
		t.Fatalf("cancelled job resurrected as %q", st.State)
	}

	// The straggler re-runs under its original ID; cancel proves it is
	// live again, then the queued job completes with the right answer.
	waitRunning(t, svc2, runnerID)
	if err := svc2.Cancel(runnerID); err != nil {
		t.Fatal(err)
	}
	waitState(t, svc2, runnerID, Cancelled)
	if got, want := waitState(t, svc2, queuedID, Done).Result,
		fmt.Sprintf("%#x", DagValue(5, 64, 3)); got != want {
		t.Errorf("re-admitted job result %s, want %s", got, want)
	}

	// Tenant identity and quota survived the restart.
	tid1, err := svc2.TenantID("t")
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range svc2.Tenants() {
		if ts.Name == "t" && (ts.ID != tid1 || ts.Weight != 5) {
			t.Errorf("tenant after restart: %+v", ts)
		}
	}
	// Fresh IDs do not collide with recovered ones.
	freshID := mustSubmit(t, svc2, "t", FamilyPFor, PForParams{Levels: 2})
	if freshID <= cancelID {
		t.Errorf("fresh job ID %d not above recovered high-water %d", freshID, cancelID)
	}
	waitState(t, svc2, freshID, Done)
}

// TestExactlyOnceSubmitAcrossRestart retries one submit token before
// and after a restart: every retry resolves to the original job, and
// the ack watermark prunes dedup state.
func TestExactlyOnceSubmitAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{StateDir: dir}
	spec := JobSpec{Family: FamilyPFor, Params: PForParams{Levels: 3, Seed: 1}}
	tok := SubmitToken{Client: "c1", Seq: 1}

	_, svc1 := newDurableService(t, 1, cfg)
	id1, err := svc1.SubmitToken("t", spec, tok)
	if err != nil {
		t.Fatal(err)
	}
	if id2, err := svc1.SubmitToken("t", spec, tok); err != nil || id2 != id1 {
		t.Fatalf("same-incarnation retry: id %d (%v), want %d", id2, err, id1)
	}
	waitState(t, svc1, id1, Done)
	if err := svc1.Suspend(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	_, svc2 := newDurableService(t, 1, cfg)
	if id3, err := svc2.SubmitToken("t", spec, tok); err != nil || id3 != id1 {
		t.Fatalf("cross-restart retry: id %d (%v), want %d", id3, err, id1)
	}
	if n := len(svc2.List()); n != 1 {
		t.Fatalf("%d jobs after retried submits, want 1", n)
	}
	// A new sequence number is a new job; its ack prunes seq 1.
	id4, err := svc2.SubmitToken("t", spec, SubmitToken{Client: "c1", Seq: 2, Ack: 1})
	if err != nil || id4 == id1 {
		t.Fatalf("new seq: id %d (%v)", id4, err)
	}
	svc2.mu.Lock()
	kept := len(svc2.tokens["c1"])
	svc2.mu.Unlock()
	if kept != 1 {
		t.Errorf("token state for c1 has %d entries after ack, want 1", kept)
	}
	waitState(t, svc2, id4, Done)
}

// pollWaiting blocks until n waits are parked inside the server (the
// accept loop and reader can lag far behind on a loaded single-CPU
// box, so tests sequence shutdowns on this instead of sleeps).
func pollWaiting(t *testing.T, srv *Server, n int32) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for srv.waiting.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("server never parked %d waits (have %d)", n, srv.waiting.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// rawRequest drives the wire protocol directly (the Client would retry
// typed shutdown errors away before the test could observe them).
type rawConn struct {
	c net.Conn
	r *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &rawConn{c: c, r: bufio.NewReader(c)}
}

func (rc *rawConn) send(t *testing.T, req Request) {
	t.Helper()
	buf, _ := json.Marshal(req)
	if _, err := rc.c.Write(append(buf, '\n')); err != nil {
		t.Fatalf("raw write: %v", err)
	}
}

func (rc *rawConn) recv(t *testing.T) Response {
	t.Helper()
	rc.c.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, err := rc.r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("raw read: %v", err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		t.Fatalf("raw decode: %v", err)
	}
	return resp
}

// TestServerDrainingTypedError: a wait blocked across a server close
// receives a CodeDraining response, not a bare connection reset.
func TestServerDrainingTypedError(t *testing.T) {
	_, svc := newTestService(t, 1, Config{MaxActive: 1}, WorkloadConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(svc, ln, nil)
	defer srv.Close()

	id := mustSubmit(t, svc, "t", FamilyStencil, longStencil)
	waitRunning(t, svc, id)

	rc := dialRaw(t, srv.Addr().String())
	rc.send(t, Request{Op: OpWait, Job: id})
	pollWaiting(t, srv, 1)
	go srv.Close()
	resp := rc.recv(t)
	if resp.OK || resp.Code != CodeDraining {
		t.Fatalf("blocked wait across close: %+v, want code %q", resp, CodeDraining)
	}
	svc.Cancel(id)
}

// TestServerRestartingTypedError: suspend answers blocked waits and
// new submissions with CodeRestarting so clients know to come back.
func TestServerRestartingTypedError(t *testing.T) {
	dir := t.TempDir()
	_, svc := newDurableService(t, 1, Config{MaxActive: 1, StateDir: dir})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(svc, ln, nil)
	defer srv.Close()

	id := mustSubmit(t, svc, "t", FamilyStencil, longStencil)
	waitRunning(t, svc, id)

	rc := dialRaw(t, srv.Addr().String())
	rc.send(t, Request{Op: OpWait, Job: id})
	pollWaiting(t, srv, 1)
	// Suspend writes its snapshot into the state directory: it must have
	// returned before the test's TempDir is removed.
	suspended := make(chan struct{})
	go func() { defer close(suspended); svc.Suspend(10 * time.Millisecond) }()
	defer func() { <-suspended }()
	if resp := rc.recv(t); resp.OK || resp.Code != CodeRestarting {
		t.Fatalf("blocked wait across suspend: %+v, want code %q", resp, CodeRestarting)
	}
	// The connection still answers; a submit now reports restarting too.
	rc.send(t, Request{Op: OpSubmit, Tenant: "t", Family: FamilyPFor})
	if resp := rc.recv(t); resp.OK || resp.Code != CodeRestarting {
		t.Fatalf("submit during suspend: %+v, want code %q", resp, CodeRestarting)
	}
}

// TestWaitCtxAbandon abandons a blocked wait via context; the call
// returns promptly and the client recovers on the next call.
func TestWaitCtxAbandon(t *testing.T) {
	_, svc := newTestService(t, 1, Config{MaxActive: 1}, WorkloadConfig{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(svc, ln, nil)
	defer srv.Close()
	cli, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	id, err := cli.Submit("t", FamilyStencil, longStencil)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, svc, id)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if _, err := cli.WaitCtx(ctx, id); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned wait: %v, want deadline exceeded", err)
	}
	if since := time.Since(start); since > 5*time.Second {
		t.Fatalf("abandoned wait took %v", since)
	}
	// The client redials transparently and the server side did not
	// leak the blocked handler: cancel and observe the final state.
	if err := cli.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st, err := cli.Wait(id)
	if err != nil || st.State != "cancelled" {
		t.Fatalf("post-abandon wait: %+v (%v)", st, err)
	}
}

// TestClientReconnectAcrossRestart blocks a client wait over a full
// suspend/restart cycle: the wait absorbs the CodeRestarting answer,
// redials with backoff until the next incarnation serves the same
// address, and resolves with the job's result — same ID throughout.
func TestClientReconnectAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{MaxActive: 1, StateDir: dir}

	sys1 := core.NewSystem(core.Config{Localities: 1, Workers: 2})
	w1 := RegisterWorkloads(sys1, WorkloadConfig{})
	sys1.Start()
	svc1, err := Open(sys1, w1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln1.Addr().String()
	srv1 := Serve(svc1, ln1, nil)

	cli, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	runnerID, err := cli.Submit("t", FamilyStencil, longStencil)
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, svc1, runnerID)
	queuedID, err := cli.Submit("t", FamilyPFor, PForParams{Levels: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}

	type waitResult struct {
		st  JobStatus
		err error
	}
	waited := make(chan waitResult, 1)
	go func() {
		st, err := cli.Wait(queuedID)
		waited <- waitResult{st, err}
	}()
	pollWaiting(t, srv1, 1)

	// Incarnation 1 goes down restart-style.
	if err := svc1.Suspend(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	srv1.Close()
	sys1.Close()

	select {
	case r := <-waited:
		t.Fatalf("wait resolved during downtime: %+v", r)
	case <-time.After(200 * time.Millisecond):
	}

	// Incarnation 2 on the same address.
	sys2 := core.NewSystem(core.Config{Localities: 1, Workers: 2})
	w2 := RegisterWorkloads(sys2, WorkloadConfig{})
	sys2.Start()
	defer sys2.Close()
	svc2, err := Open(sys2, w2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	var ln2 net.Listener
	for i := 0; ; i++ {
		ln2, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i > 100 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	srv2 := Serve(svc2, ln2, nil)
	defer srv2.Close()

	// The straggler re-runs first (MaxActive 1); cancelling it through
	// the same client unblocks the queued job the goroutine waits on.
	if err := cli.Cancel(runnerID); err != nil {
		t.Fatalf("cancel across restart: %v", err)
	}
	select {
	case r := <-waited:
		if r.err != nil {
			t.Fatalf("wait across restart: %v", r.err)
		}
		if want := fmt.Sprintf("%#x", DagValue(4, 64, 7)); r.st.State != "done" || r.st.Result != want {
			t.Fatalf("wait across restart: %+v, want done/%s", r.st, want)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("wait never resolved after restart")
	}
}

// TestCompactionKeepsEveryAdmittedJob pins the hand-off between a
// compaction's state build and its journal switch: with a threshold of
// a few hundred bytes nearly every finished job compacts while other
// clients submit, and at any instant the test stops the registry (every
// append and every compaction happens under s.mu) the state directory
// must replay to a registry holding every admitted job. Building the
// state under the lock but switching journals after releasing it loses
// the admissions that land in between until the next compaction.
func TestCompactionKeepsEveryAdmittedJob(t *testing.T) {
	dir := t.TempDir()
	_, svc := newDurableService(t, 2, Config{
		StateDir: dir, Fsync: FsyncOff, CompactBytes: 300,
		MaxActive: 8, DefaultQuota: Quota{MaxActive: 8},
	})
	const submitters, perSubmitter = 6, 60
	var wg sync.WaitGroup
	for c := 0; c < submitters; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perSubmitter; k++ {
				id, err := svc.Submit(fmt.Sprintf("t%d", c), JobSpec{Family: FamilyPFor, Params: PForParams{Levels: 2, Seed: uint64(k)}})
				if err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				if _, err := svc.Wait(id); err != nil {
					t.Errorf("wait %d: %v", id, err)
					return
				}
			}
		}(c)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()

	for round := 0; ; round++ {
		select {
		case <-finished:
			if round < 20 {
				t.Fatalf("only %d looks at the state directory before the submitters finished", round)
			}
			return
		default:
		}
		copyDir := t.TempDir()
		svc.mu.Lock()
		admitted := make([]uint64, 0, len(svc.state.Jobs))
		for _, j := range svc.state.Jobs {
			admitted = append(admitted, j.ID)
		}
		entries, err := os.ReadDir(dir)
		for _, e := range entries {
			var data []byte
			if data, err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
				break
			}
			if err = os.WriteFile(filepath.Join(copyDir, e.Name()), data, 0o644); err != nil {
				break
			}
		}
		svc.mu.Unlock()
		if err != nil {
			t.Fatalf("round %d: copy state directory: %v", round, err)
		}
		st, rec, err := OpenStore(copyDir, StoreOptions{Fsync: FsyncOff})
		if err != nil {
			t.Fatalf("round %d: replay of the copied state directory: %v", round, err)
		}
		st.Close()
		for _, id := range admitted {
			if rec.job(id) == nil {
				t.Fatalf("round %d: job %d is admitted and acknowledged but in no file of the state directory (%d of %d jobs replayed)",
					round, id, len(rec.Jobs), len(admitted))
			}
		}
	}
}
