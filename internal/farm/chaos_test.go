package farm

import (
	"context"
	"testing"
	"time"

	"repro/internal/farm/api"
	"repro/internal/obs/sweep"
	"repro/internal/runspec"
	"repro/internal/sim"
)

// TestChaosWorkerCrashRecovery is the farm's worker-crash scenario: every
// job's first worker takes the lease and vanishes without completing or
// heartbeating. The lease lapses, the job re-queues with its attempt
// charged, and a healthy worker finishes it on attempt 2. The sweep
// converges with consistent accounting across the status API, the
// collector's counters, and its event stream.
func TestChaosWorkerCrashRecovery(t *testing.T) {
	clock := newFakeClock()
	col := sweep.New()
	events := recordEvents(t, col)
	co, cl := testFarm(t, Config{LeaseTTL: 30 * time.Second, Retries: 2, Clock: clock.Now, Collector: col})
	ctx := context.Background()

	const n = 5
	jobs := make([]runspec.Named, n)
	for i := range jobs {
		jobs[i] = protoJob(string(rune('a'+i)), int64(i+1))
	}
	sub, err := cl.Submit(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}

	crashed := map[string]bool{}
	for rounds := 0; rounds < 10*n; rounds++ {
		lease, err := cl.Lease(ctx, "worker", 0)
		if err != nil {
			t.Fatal(err)
		}
		if lease == nil {
			// Empty queue: either leases are pending expiry or we're done.
			st, err := cl.Sweep(ctx, sub.Sweep)
			if err != nil {
				t.Fatal(err)
			}
			if st.Complete {
				break
			}
			clock.Advance(31 * time.Second)
			co.Tick()
			continue
		}
		if !crashed[lease.Key] {
			// First attempt: the worker dies mid-job — no complete, no
			// heartbeat, the lease just goes silent.
			crashed[lease.Key] = true
			continue
		}
		if lease.Attempt != 2 {
			t.Fatalf("%s re-leased at attempt %d, want 2", lease.Key, lease.Attempt)
		}
		if _, err := cl.Complete(ctx, api.CompleteRequest{
			Lease: lease.ID, Outcome: api.OutcomeOK, Summary: &sim.Summary{Cycles: uint64(lease.Attempt)},
		}); err != nil {
			t.Fatal(err)
		}
	}

	st, err := cl.Sweep(ctx, sub.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete || st.Done != n || st.Failed != 0 {
		t.Fatalf("sweep after crash recovery: %+v", st)
	}
	for _, j := range st.Jobs {
		if j.Attempts != 2 {
			t.Fatalf("job %s: %d attempts, want 2 (one crashed, one completed)", j.Key, j.Attempts)
		}
	}

	// Collector view: every job expired exactly once and still completed.
	p := col.Snapshot()
	if p.Jobs != n || p.Completed != n || p.Expired != n || p.Retries != n || p.Failed != 0 {
		t.Fatalf("collector progress: %+v", p)
	}

	// Event view: attempt/expired/retry/done counts must balance — the
	// post-mortem story a real crash would be diagnosed from.
	c := eventCounts(events())
	if c[sweep.EventAttempt] != 2*n || c[sweep.EventExpired] != n || c[sweep.EventRetry] != n ||
		c["done:"+sweep.OutcomeDone] != n || c["done:"+sweep.OutcomeFailed] != 0 {
		t.Fatalf("event counts: %v", c)
	}
}

// TestChaosPersistentCrashExhaustsRetries: a job whose every worker dies
// fails terminally once its attempts are spent, instead of cycling forever.
func TestChaosPersistentCrashExhaustsRetries(t *testing.T) {
	clock := newFakeClock()
	co, cl := testFarm(t, Config{LeaseTTL: 30 * time.Second, Retries: 1, Clock: clock.Now})
	ctx := context.Background()

	sub, err := cl.Submit(ctx, []runspec.Named{protoJob("doomed", 1)})
	if err != nil {
		t.Fatal(err)
	}
	for attempt := 1; ; attempt++ {
		lease, err := cl.Lease(ctx, "doomed-worker", 0)
		if err != nil {
			t.Fatal(err)
		}
		if lease == nil {
			break
		}
		if lease.Attempt != attempt {
			t.Fatalf("attempt %d leased as %d", attempt, lease.Attempt)
		}
		if attempt > 5 {
			t.Fatal("retry accounting must converge, not cycle")
		}
		clock.Advance(31 * time.Second)
		co.Tick()
	}

	st, err := cl.Sweep(ctx, sub.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	// Retries=1 → attempts 1 and 2 both lapse, then terminal failure.
	if !st.Complete || st.Failed != 1 || st.Jobs[0].Attempts != 2 {
		t.Fatalf("sweep: %+v", st)
	}
	if st.Jobs[0].Error == "" {
		t.Fatal("a lease-lapse failure must explain itself")
	}

	// After the terminal failure a fresh submit of the same sweep reports
	// it failed instead of re-running it.
	sub2, err := cl.Submit(ctx, []runspec.Named{protoJob("doomed", 1)})
	if err != nil {
		t.Fatal(err)
	}
	if sub2.Sweep != sub.Sweep || sub2.Failed != 1 || sub2.Pending != 0 {
		t.Fatalf("re-submit after terminal failure: %+v", sub2)
	}
}

// TestChaosSuccessWithoutSummary: a worker that claims success but pushes
// no summary burns the attempt (the lease was spent) but cannot poison the
// corpus; the job re-queues.
func TestChaosSuccessWithoutSummary(t *testing.T) {
	clock := newFakeClock()
	_, cl := testFarm(t, Config{LeaseTTL: time.Minute, Retries: 1, Clock: clock.Now})
	ctx := context.Background()

	if _, err := cl.Submit(ctx, []runspec.Named{protoJob("a", 1)}); err != nil {
		t.Fatal(err)
	}
	lease, _ := cl.Lease(ctx, "w", 0)
	_, err := cl.Complete(ctx, api.CompleteRequest{Lease: lease.ID, Outcome: api.OutcomeOK})
	if errCode(t, err) != api.CodeBadRequest {
		t.Fatalf("summary-less ok must be rejected: %v", err)
	}
	release, err := cl.Lease(ctx, "w2", 0)
	if err != nil || release == nil || release.Attempt != 2 {
		t.Fatalf("job must be re-leasable after the rejected complete: %+v %v", release, err)
	}
}
