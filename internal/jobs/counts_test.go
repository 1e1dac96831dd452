package jobs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"time"

	"allscale/internal/runtime"
	"allscale/internal/sched"
	"allscale/internal/trace"
)

// jobCalls runs one 32² stencil job of 4 steps through the service on 2
// in-process ranks, one worker each, sized as the jobs-mixed benchmark
// workload sizes it, and returns its rpc.call spans by rank and method,
// how many of them somebody waited for, and the frames of its calls and
// replies.
func jobCalls(t *testing.T) (calls [2]map[string]int, awaited, frames int) {
	t.Helper()
	sys, svc := newTestServiceWorkers(t, 2, 1, Config{}, WorkloadConfig{StencilSizes: []int{32}, PForMinGrain: 4096})
	total := func(name string) (sum uint64) {
		for r := 0; r < sys.Size(); r++ {
			sum += sys.Metrics(r).CounterValue(name)
		}
		return sum
	}
	// The frames of calls and replies, counted as they arrive: once every
	// call is acked they are all in, and no steal probe or rpc.acks frame
	// is among them.
	callFrames := func() int {
		deadline := time.Now().Add(5 * time.Second)
		for r := 0; r < sys.Size(); r++ {
			for sys.Locality(r).PendingCalls() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("rank %d: calls still pending", r)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		return int(total(runtime.MetricRPCCallFrames))
	}
	before := callFrames()
	id := mustSubmit(t, svc, "t", FamilyStencil, StencilParams{N: 32, Steps: 4})
	waitState(t, svc, id, Done)
	frames = callFrames() - before
	calls = [2]map[string]int{{}, {}}
	for r, tr := range sys.Tracers() {
		for _, sp := range trace.Merge(tr) {
			if sp.Name != "rpc.call" {
				continue
			}
			calls[r][sp.Detail]++
			if !ackOnly[sp.Detail] {
				awaited++
			}
		}
	}
	return calls, awaited, frames
}

// ackOnly names the calls whose callers read no reply.
var ackOnly = map[string]bool{"sched.runb": true, "runtime.fulfill": true, "dim.unpin": true, "dim.destroy": true}

func formatCalls(calls map[string]int) string {
	methods := make([]string, 0, len(calls))
	for m := range calls {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	var b strings.Builder
	for _, m := range methods {
		fmt.Fprintf(&b, " %s=%d", m, calls[m])
	}
	return b.String()
}

// TestStencilJobProtocolCounts pins the messages of one stencil job
// (DESIGN.md §6f "A lazy catalog"). The job runs at rank 0, which hosts
// the index root: its two first-touch claims are local calls. Its two
// items are created with no call at all and destroyed with one ack-only
// dim.destroy notice each to rank 1, which nobody waits for: the job's
// two frames are the notices, and nothing crosses to rank 1 awaited.
func TestStencilJobProtocolCounts(t *testing.T) {
	calls, awaited, frames := jobCalls(t)
	t.Logf("one stencil job: rank 0%s, rank 1%s; %d awaited, %d frames", formatCalls(calls[0]), formatCalls(calls[1]), awaited, frames)
	if got, want := formatCalls(calls[0]), " dim.claim=2 dim.destroy=2"; got != want {
		t.Errorf("rank 0 calls:%s, want%s", got, want)
	}
	if got := formatCalls(calls[1]); got != "" {
		t.Errorf("rank 1 calls:%s, want none", got)
	}
	if awaited != 2 || frames != 2 {
		t.Errorf("%d awaited calls in %d frames, want the 2 local claims in the 2 notices' frames", awaited, frames)
	}
}

// TestStencilJobAllocs pins what one stencil job allocates, every
// goroutine of the process counted: the job of
// TestStencilJobProtocolCounts, through the same service, from submit to
// its done status — admission, dispatch, the item create and destroy, the
// steps and their tasks. The fewest of three batches without a steal is
// checked: 378–379 a job, 401–410 a batch under -race -cpu 2, whose pool
// drops cost more; the bound is the highest of those plus 3 %.
func TestStencilJobAllocs(t *testing.T) {
	sys, svc := newTestServiceWorkers(t, 2, 1, Config{}, WorkloadConfig{StencilSizes: []int{32}, PForMinGrain: 4096})
	job := func() {
		waitState(t, svc, mustSubmit(t, svc, "t", FamilyStencil, StencilParams{N: 32, Steps: 4}), Done)
	}
	// A batch starts once no call is pending, so that it counts no
	// notice or ack of the batch before it.
	settled := func() uint64 {
		deadline := time.Now().Add(5 * time.Second)
		for r := 0; r < sys.Size(); r++ {
			for sys.Locality(r).PendingCalls() != 0 {
				if time.Now().After(deadline) {
					t.Fatalf("rank %d: calls still pending", r)
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		return sys.CounterSum(sched.MetricStolenFrom)
	}
	for range 10 {
		job()
	}
	const batches, jobs = 3, 20
	allocs := math.Inf(1)
	for attempt, clean := 0, 0; clean < batches; attempt++ {
		if attempt == 20 {
			t.Fatalf("%d of 20 batches of jobs ran without a steal, want %d", clean, batches)
		}
		before := settled()
		batch := testing.AllocsPerRun(jobs, job)
		if settled() != before {
			continue
		}
		t.Logf("%.0f allocations a job", batch)
		clean++
		allocs = min(allocs, batch)
	}
	if allocs > 422 {
		t.Errorf("%.0f allocations a job, want at most 422", allocs)
	}
}
