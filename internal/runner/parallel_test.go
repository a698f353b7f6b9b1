package runner

import (
	"context"
	"errors"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs/sweep"
	"repro/internal/sim"
)

// setGOMAXPROCS sets GOMAXPROCS for the rest of the test and restores the
// previous value when it ends.
func setGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestDefaultParallelIsGOMAXPROCS: an unset or non-positive Parallel sizes
// the pool to every CPU the scheduler may use; an explicit one is honoured.
func TestDefaultParallelIsGOMAXPROCS(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		setGOMAXPROCS(t, n)
		if got := (Options{}).parallel(); got != n {
			t.Errorf("GOMAXPROCS %d: Options{}.parallel() = %d, want %d", n, got, n)
		}
		if got := (Options{Parallel: -1}).parallel(); got != n {
			t.Errorf("GOMAXPROCS %d: Options{Parallel: -1}.parallel() = %d, want %d", n, got, n)
		}
		for _, p := range []int{1, 5} {
			if got := (Options{Parallel: p}).parallel(); got != p {
				t.Errorf("GOMAXPROCS %d: Options{Parallel: %d}.parallel() = %d", n, p, got)
			}
		}
	}
}

// TestDefaultPoolUsesEveryCPU: under GOMAXPROCS 2 a default-options Run
// holds two attempts in flight at once. Each stub attempt blocks until a
// second one is running, so a one-worker pool times out instead.
func TestDefaultPoolUsesEveryCPU(t *testing.T) {
	setGOMAXPROCS(t, 2)
	var mu sync.Mutex
	inFlight, peak := 0, 0
	paired := make(chan struct{})
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		mu.Lock()
		inFlight++
		if inFlight > peak {
			peak = inFlight
			if peak == 2 {
				close(paired)
			}
		}
		mu.Unlock()
		defer func() {
			mu.Lock()
			inFlight--
			mu.Unlock()
		}()
		select {
		case <-paired:
			return stubOK(cfg)
		case <-time.After(5 * time.Second):
			return nil, nil, errors.New("no second attempt ran alongside this one within 5s")
		}
	})
	jobs := []Job{stubJob("a", seedOK), stubJob("b", seedOK+1), stubJob("c", seedOK+2), stubJob("d", seedOK+3)}
	res, err := Run(context.Background(), Options{}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(jobs) {
		t.Errorf("results = %d, want %d", len(res), len(jobs))
	}
	if peak != 2 {
		t.Errorf("peak attempts in flight = %d, want 2", peak)
	}
}

// TestRunRejectsBadKeys: results are keyed by Job.Key, so a batch with an
// empty or duplicate key fails whole before any job simulates or any
// journal opens, instead of silently returning fewer results than jobs.
func TestRunRejectsBadKeys(t *testing.T) {
	var calls atomic.Int64
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		calls.Add(1)
		return stubOK(cfg)
	})
	cases := []struct {
		name string
		jobs []Job
		want string
	}{
		{"duplicate", []Job{stubJob("k", seedOK), stubJob("k", seedOK+1)}, `duplicate key "k"`},
		{"empty", []Job{stubJob("a", seedOK), stubJob("", seedOK+1)}, "job 1 has no key"},
	}
	for _, tc := range cases {
		dir := t.TempDir()
		res, err := Run(context.Background(), Options{Cache: NewCache(dir), Telemetry: sweep.New()}, tc.jobs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v must contain %q", tc.name, err, tc.want)
		}
		if len(res) != 0 {
			t.Errorf("%s: %d results from a rejected batch", tc.name, len(res))
		}
		if entries, _ := os.ReadDir(dir); len(entries) != 0 {
			t.Errorf("%s: rejected batch wrote %d entries under the cache dir", tc.name, len(entries))
		}
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("rejected batches simulated %d jobs", n)
	}
}
