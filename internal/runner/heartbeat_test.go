package runner

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestChaosHeartbeatCancelAbortsAttempt is the lease-gone scenario: the
// simulation would run forever, but the heartbeat hook reports a fatal
// error (the farm coordinator said lease_gone), which must cancel the
// in-flight attempt promptly and classify it as ErrHeartbeatCanceled —
// a job failure, never mistaken for batch cancellation.
func TestChaosHeartbeatCancelAbortsAttempt(t *testing.T) {
	var sims atomic.Int32
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		sims.Add(1)
		return stubHang(ctx) // blocks until the attempt context fires
	})
	var beats atomic.Int32
	leaseGone := errors.New("lease gone: l1-deadbeef")
	opts := Options{
		Parallel:       1,
		HeartbeatEvery: 2 * time.Millisecond,
		OnHeartbeat: func(j Job) error {
			if beats.Add(1) >= 3 {
				return leaseGone // first two beats succeed, then the lease is gone
			}
			return nil
		},
	}
	start := time.Now()
	_, st, err := run(context.Background(), opts, []Job{stubJob("doomed", seedHang)})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("attempt was not aborted promptly: took %v", elapsed)
	}
	if err == nil {
		t.Fatal("want heartbeat-canceled failure, got success")
	}
	if !errors.Is(err, ErrHeartbeatCanceled) {
		t.Fatalf("want ErrHeartbeatCanceled, got: %v", err)
	}
	// The underlying context.Canceled must not leak into the wrap chain:
	// a heartbeat abort is a job failure, not batch cancellation.
	if errors.Is(err, context.Canceled) {
		t.Fatalf("heartbeat abort must not classify as canceled: %v", err)
	}
	if got := sims.Load(); got != 1 {
		t.Fatalf("heartbeat abort ran %d simulations, want 1", got)
	}
	if st.Failed != 1 || st.Canceled != 0 {
		t.Fatalf("want Failed=1 Canceled=0, got %+v", st)
	}
}

// TestHeartbeatNilKeepsRunning proves a healthy heartbeat (always nil)
// never disturbs the attempt: the job completes and the hook fired.
func TestHeartbeatNilKeepsRunning(t *testing.T) {
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		time.Sleep(20 * time.Millisecond)
		return stubOK(cfg)
	})
	var beats atomic.Int32
	res, err := Run(context.Background(), Options{
		HeartbeatEvery: 2 * time.Millisecond,
		OnHeartbeat:    func(j Job) error { beats.Add(1); return nil },
	}, []Job{stubJob("steady", seedOK)})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if res["steady"] == nil {
		t.Fatal("missing result")
	}
	if beats.Load() == 0 {
		t.Fatal("heartbeat hook never fired")
	}
}
