package jobs

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"allscale/internal/core"
)

// liveAndReplayed returns, under one hold of the registry lock (every
// append and compaction happens under it), the records of the registry
// the service runs on and those of the registry OpenStore replays from a
// copy of its state directory.
func liveAndReplayed(t *testing.T, svc *Service, dir string) (live, replayed registryRecs) {
	t.Helper()
	cp := t.TempDir()
	svc.mu.Lock()
	live = recsOf(svc.state)
	entries, err := os.ReadDir(dir)
	for _, e := range entries {
		var data []byte
		if data, err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			break
		}
		if err = os.WriteFile(filepath.Join(cp, e.Name()), data, 0o644); err != nil {
			break
		}
	}
	svc.mu.Unlock()
	if err != nil {
		t.Fatalf("copy state directory: %v", err)
	}
	st, rec, err := OpenStore(cp, StoreOptions{Fsync: FsyncOff})
	if err != nil {
		t.Fatalf("replay the copied state directory: %v", err)
	}
	st.Close()
	return live, recsOf(rec.storeState)
}

// TestLiveRegistryEqualsItsReplay: the registry a durable service runs
// on is the registry its journal replays to. A seeded walk drives the
// service through every journaled transition — tenant upserts, submits
// with and without a token (retries included), cancels of pending and
// running jobs, jobs that end done and failed, and a Suspend/Open cycle
// that requeues a running job — and after every step the records the
// service would compact must be the records OpenStore replays.
func TestLiveRegistryEqualsItsReplay(t *testing.T) {
	dir := t.TempDir()
	// One slot: while the long runner holds it, submissions stay pending.
	cfg := Config{StateDir: dir, Fsync: FsyncOff, MaxActive: 1}
	open := func() (*core.System, *Service) {
		sys := core.NewSystem(core.Config{Localities: 1, Workers: 2})
		w := RegisterWorkloads(sys, WorkloadConfig{StencilSizes: []int{32}})
		sys.Start()
		svc, err := Open(sys, w, cfg)
		if err != nil {
			sys.Close()
			t.Fatalf("Open: %v", err)
		}
		return sys, svc
	}
	sys, svc := open()
	defer func() {
		svc.Close()
		sys.Close()
	}()

	rng := rand.New(rand.NewSource(44))
	tenants := []string{"a", "b", "c"}
	var seq uint64 // the token sequence of client "cli"
	var runner uint64
	// startRunner makes sure a long stencil holds the slot and executes
	// tasks, so its grid items exist.
	startRunner := func() {
		if runner == 0 {
			runner = mustSubmit(t, svc, tenants[rng.Intn(len(tenants))], FamilyStencil, longStencil)
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
			st, err := svc.Status(runner)
			if err != nil || st.State != Pending.String() && st.State != Running.String() {
				t.Fatalf("runner %d: %+v (%v)", runner, st, err)
			}
			if !st.FirstExec.IsZero() {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("runner %d executed no task", runner)
			}
		}
	}
	endRunner := func(want JobState) {
		waitState(t, svc, runner, want)
		runner = 0
	}
	ops := []struct {
		name string
		do   func()
	}{
		{"upsert tenant", func() {
			q := Quota{Weight: 1 + rng.Intn(4), MaxPending: 16 + rng.Intn(16)}
			if err := svc.RegisterTenant(tenants[rng.Intn(len(tenants))], q); err != nil {
				t.Fatal(err)
			}
		}},
		{"submit", func() {
			spec := JobSpec{Family: FamilyPFor, Params: PForParams{Levels: rng.Intn(4), Seed: rng.Uint64()}}
			if _, err := svc.Submit(tenants[rng.Intn(len(tenants))], spec); err != nil {
				t.Fatal(err)
			}
		}},
		{"submit with a token, then retry it", func() {
			seq++
			tok := SubmitToken{Client: "cli", Seq: seq, Ack: seq - 1}
			spec := JobSpec{Family: FamilyPFor, Params: PForParams{Levels: 2, Seed: seq}}
			id, err := svc.SubmitToken("a", spec, tok)
			if err != nil {
				t.Fatal(err)
			}
			if again, err := svc.SubmitToken("a", spec, tok); err != nil || again != id {
				t.Fatalf("retried token: job %d (%v), want %d", again, err, id)
			}
		}},
		{"cancel a pending job", func() {
			startRunner()
			id := mustSubmit(t, svc, "b", FamilyPFor, PForParams{Levels: 1})
			if err := svc.Cancel(id); err != nil {
				t.Fatal(err)
			}
			if st := waitState(t, svc, id, Cancelled); !st.Started.IsZero() {
				t.Fatalf("job %d was cancelled running, want pending: %+v", id, st)
			}
		}},
		{"cancel the running job", func() {
			startRunner()
			if err := svc.Cancel(runner); err != nil {
				t.Fatal(err)
			}
			endRunner(Cancelled)
		}},
		{"fail the running job", func() {
			// Destroying the runner's grid items under it fails the job.
			startRunner()
			for _, id := range sys.Manager(0).Items() {
				sys.Manager(0).DestroyItem(id)
			}
			endRunner(Failed)
		}},
		{"finish every job", func() {
			if runner != 0 {
				if err := svc.Cancel(runner); err != nil {
					t.Fatal(err)
				}
				endRunner(Cancelled)
			}
			for _, st := range svc.List() {
				if _, err := svc.Wait(st.ID); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"suspend and open", func() {
			startRunner()
			if err := svc.Suspend(10 * time.Millisecond); err != nil {
				t.Fatal(err)
			}
			if live, replayed := liveAndReplayed(t, svc, dir); !reflect.DeepEqual(live, replayed) {
				t.Fatalf("after the suspend, the registry differs from its replay:\n live %+v\n replayed %+v", live, replayed)
			}
			sys.Close()
			sys, svc = open()
			startRunner() // the suspended runner is requeued and runs again
		}},
	}
	for round := 0; round < 3; round++ {
		for _, i := range rng.Perm(len(ops)) {
			for k := 1 + rng.Intn(2); k > 0; k-- {
				step := fmt.Sprintf("round %d: %s", round, ops[i].name)
				ops[i].do()
				if live, replayed := liveAndReplayed(t, svc, dir); !reflect.DeepEqual(live, replayed) {
					t.Fatalf("%s: the registry the service runs on differs from its replay:\n live %+v\n replayed %+v", step, live, replayed)
				}
			}
		}
	}
	states := map[string]int{}
	for _, st := range svc.List() {
		states[st.State]++
	}
	t.Logf("%d tenants, jobs by state: %v", len(svc.Tenants()), states)
}
