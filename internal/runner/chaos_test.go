package runner

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/sweep"
	"repro/internal/runspec"
	"repro/internal/sim"
)

// stubSim swaps the simulation entry point for the test's lifetime. The
// stubs key off cfg.Seed, which survives Spec→SimConfig resolution, so a
// single stub can give each job of a batch its own failure mode.
func stubSim(t *testing.T, fn func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error)) {
	t.Helper()
	old := runSim
	runSim = fn
	t.Cleanup(func() { runSim = old })
}

// run is Run with a collector attached (a fresh one unless opts brings
// its own), returning the collector's counts after the batch.
func run(ctx context.Context, opts Options, jobs []Job) (map[string]*sim.Summary, sweep.Progress, error) {
	if opts.Telemetry == nil {
		opts.Telemetry = sweep.New()
	}
	res, err := Run(ctx, opts, jobs)
	return res, opts.Telemetry.Snapshot(), err
}

// mustSweepID returns the sweep identity the runner names its journals by.
func mustSweepID(t *testing.T, jobs []Job) string {
	t.Helper()
	id, err := runspec.SweepID(jobs)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// stubJob builds a valid spec whose seed selects the stub's behavior.
func stubJob(key string, seed int64) Job {
	return Job{Key: key, Spec: runspec.Spec{
		Scheme: "nonsecure", Benchmark: "lbm", Cores: 1, OpsPerCore: 300, Seed: seed,
	}}
}

func stubOK(cfg sim.Config) (*sim.Result, *sim.Summary, error) {
	return &sim.Result{}, &sim.Summary{Scheme: "stub", Cycles: uint64(cfg.Seed)}, nil
}

// stubHang mimics a wedged sim.RunContext: it blocks until the job context
// fires and returns the canceled-wrapped error the real simulator would.
func stubHang(ctx context.Context) (*sim.Result, *sim.Summary, error) {
	<-ctx.Done()
	return nil, nil, fmt.Errorf("%w: %w", sim.ErrCanceled, ctx.Err())
}

const (
	seedOK = iota + 100
	seedPanic
	seedHang
	seedDeadlock
)

// TestChaosPanicAndHangIsolated is the acceptance scenario: a sweep with
// one panicking job, one hanging job and one whose simulation trips the
// deadlock watchdog completes every other job, names all three failures in
// the joined error (the watchdog trip typed), and counts Panics=1,
// Timeouts=1.
func TestChaosPanicAndHangIsolated(t *testing.T) {
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		switch cfg.Seed {
		case seedPanic:
			panic("injected chaos panic")
		case seedHang:
			return stubHang(ctx)
		case seedDeadlock:
			return nil, nil, fmt.Errorf("wedged: %w", sim.ErrDeadlock)
		default:
			return stubOK(cfg)
		}
	})
	jobs := []Job{
		stubJob("ok1", seedOK), stubJob("boom", seedPanic), stubJob("ok2", seedOK+10),
		stubJob("wedge", seedHang), stubJob("ok3", seedOK+20), stubJob("ok4", seedOK+30),
		stubJob("dead", seedDeadlock),
	}
	res, st, err := run(context.Background(), Options{
		Parallel: 2, KeepGoing: true, JobTimeout: 50 * time.Millisecond,
	}, jobs)
	if err == nil {
		t.Fatal("want joined error naming every failure")
	}
	for _, key := range []string{"boom", "wedge", "dead"} {
		if !strings.Contains(err.Error(), key) {
			t.Errorf("error should name %s: %v", key, err)
		}
	}
	if len(res) != 4 {
		t.Fatalf("all healthy jobs must complete: got %d results", len(res))
	}
	if st.Panics != 1 || st.Timeouts != 1 || st.Failed != 3 || st.Simulated != 4 || st.Canceled != 0 {
		t.Fatalf("stats: %+v", st)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("joined error should carry the PanicError: %v", err)
	}
	if !strings.Contains(string(pe.Stack), "chaos_test") {
		t.Errorf("panic error must carry the panic-site stack, got:\n%s", pe.Stack)
	}
	if !errors.Is(err, ErrJobTimeout) {
		t.Fatalf("joined error should carry the job timeout: %v", err)
	}
	if !errors.Is(err, sim.ErrDeadlock) {
		t.Fatalf("a watchdog trip must surface typed through the joined error: %v", err)
	}
}

// TestChaosPanicCancelsBatchByDefault: without KeepGoing a panic, like any
// failure, cancels the queued remainder — but never the process.
func TestChaosPanicCancelsBatchByDefault(t *testing.T) {
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		if cfg.Seed == seedPanic {
			panic("early chaos panic")
		}
		return stubOK(cfg)
	})
	jobs := []Job{stubJob("boom", seedPanic), stubJob("a", seedOK), stubJob("b", seedOK+1), stubJob("c", seedOK+2)}
	_, st, err := run(context.Background(), Options{Parallel: 1}, jobs)
	if err == nil {
		t.Fatal("want error")
	}
	if st.Panics != 1 || st.Failed != 1 || st.Canceled != 3 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestChaosParentDeadlineClassifiedCanceled is the classification bugfix:
// a parent-context deadline is a cancellation (jobs never ran), not a job
// failure.
func TestChaosParentDeadlineClassifiedCanceled(t *testing.T) {
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		return stubOK(cfg)
	})
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, st, err := run(ctx, Options{Parallel: 2}, []Job{stubJob("a", seedOK), stubJob("b", seedOK+1)})
	if st.Failed != 0 || st.Canceled != 2 {
		t.Fatalf("parent deadline must count as canceled, not failed: %+v (err=%v)", st, err)
	}
	if err == nil || !strings.Contains(err.Error(), "canceled") {
		t.Fatalf("canceled jobs must still be accounted for: %v", err)
	}
}

// readJournal loads every event of a sweep's telemetry journal.
func readJournal(t *testing.T, path string) []sweep.Event {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var evs []sweep.Event
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev sweep.Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		evs = append(evs, ev)
	}
	return evs
}

// journalCounts tallies sweep_start events and done events by outcome.
func journalCounts(evs []sweep.Event) map[string]int {
	counts := map[string]int{}
	for _, ev := range evs {
		switch ev.Type {
		case sweep.EventSweepStart:
			counts[ev.Type]++
		case sweep.EventDone:
			counts[ev.Type+"/"+ev.Outcome]++
		}
	}
	return counts
}

// TestChaosMidSweepCancelResume: cancellation mid-sweep drains, leaves a
// telemetry journal + cache, and a rerun resumes with zero re-simulated
// completed jobs.
func TestChaosMidSweepCancelResume(t *testing.T) {
	var mu sync.Mutex
	simulated := map[int64]int{}
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		mu.Lock()
		simulated[cfg.Seed]++
		mu.Unlock()
		return stubOK(cfg)
	})
	jobs := make([]Job, 5)
	for i := range jobs {
		jobs[i] = stubJob(fmt.Sprintf("job%d", i), int64(seedOK+10*i))
	}
	cache := NewCache(t.TempDir())

	// First sweep: an operator interrupt fires after two jobs completed.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{Parallel: 1, Cache: cache, Telemetry: sweep.New(), OnJobDone: func(done, total int, j Job, cached bool, err error) {
		if done == 2 {
			cancel()
		}
	}}
	_, st, err := run(ctx, opts, jobs)
	if st.Simulated != 2 || st.Canceled != 3 || st.Failed != 0 {
		t.Fatalf("interrupted sweep stats: %+v (err=%v)", st, err)
	}

	// The journal must already record every terminal state.
	path := TelemetryPath(cache.Dir(), mustSweepID(t, jobs))
	counts := journalCounts(readJournal(t, path))
	if counts[sweep.EventSweepStart] != 1 || counts["done/"+sweep.OutcomeDone] != 2 || counts["done/"+sweep.OutcomeCanceled] != 3 {
		t.Fatalf("journal after interrupt: %v", counts)
	}

	// Resume: same sweep, fresh context — completed jobs come from the
	// cache, nothing is re-simulated.
	_, st2, err2 := run(context.Background(), Options{Parallel: 1, Cache: cache, Telemetry: sweep.New()}, jobs)
	if err2 != nil {
		t.Fatal(err2)
	}
	if st2.Cached != 2 || st2.Simulated != 3 {
		t.Fatalf("resume stats: %+v", st2)
	}
	for seed, n := range simulated {
		if n != 1 {
			t.Fatalf("seed %d simulated %d times; resume must never re-simulate completed jobs", seed, n)
		}
	}

	// The resumed run appended its own sweep_start and events to the same
	// file.
	counts = journalCounts(readJournal(t, path))
	if counts[sweep.EventSweepStart] != 2 || counts["done/"+sweep.OutcomeCached] != 2 || counts["done/"+sweep.OutcomeDone] != 5 {
		t.Fatalf("journal after resume: %v", counts)
	}
}

// TestChaosManifestStates: panic and timeout jobs land in the telemetry
// journal with their own outcomes, attempt counts and the terminal error
// text.
func TestChaosManifestStates(t *testing.T) {
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		switch cfg.Seed {
		case seedPanic:
			panic("journal chaos")
		case seedHang:
			return stubHang(ctx)
		default:
			return stubOK(cfg)
		}
	})
	cache := NewCache(t.TempDir())
	jobs := []Job{stubJob("ok", seedOK), stubJob("boom", seedPanic), stubJob("wedge", seedHang)}
	_, err := Run(context.Background(), Options{
		Parallel: 1, KeepGoing: true, Cache: cache, JobTimeout: 30 * time.Millisecond,
		Telemetry: sweep.New(),
	}, jobs)
	if err == nil {
		t.Fatal("want error")
	}
	byKey := map[string]sweep.Event{}
	for _, ev := range readJournal(t, TelemetryPath(cache.Dir(), mustSweepID(t, jobs))) {
		if ev.Type == sweep.EventDone {
			byKey[ev.Key] = ev
		}
	}
	if byKey["ok"].Outcome != sweep.OutcomeDone || byKey["boom"].Outcome != sweep.OutcomePanic || byKey["wedge"].Outcome != sweep.OutcomeTimeout {
		t.Fatalf("journal outcomes: %+v", byKey)
	}
	if !strings.Contains(byKey["boom"].Error, "journal chaos") {
		t.Errorf("panic record should carry the panic message: %q", byKey["boom"].Error)
	}
	if byKey["wedge"].Attempt != 1 || byKey["boom"].Attempt != 1 {
		t.Errorf("single-attempt jobs must record attempt 1: %+v", byKey)
	}
}

// TestUnhashableSweepSkipsJournals: a job set with an unhashable spec has
// no sweep identity, so Run writes no telemetry journal (two such sets
// must never share one) while the bad job still fails with its
// spec error and the rest of the sweep runs.
func TestUnhashableSweepSkipsJournals(t *testing.T) {
	stubSim(t, func(_ context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		return stubOK(cfg)
	})
	dir := t.TempDir()
	bad := stubJob("bad", seedOK+1)
	bad.Spec.DataFrac = math.NaN()
	jobs := []Job{stubJob("ok", seedOK), bad}
	res, st, err := run(context.Background(), Options{
		Parallel: 1, Cache: NewCache(dir), KeepGoing: true, Telemetry: sweep.New(),
	}, jobs)
	if err == nil || !strings.Contains(err.Error(), "bad:") {
		t.Fatalf("want the bad job's spec error, got %v", err)
	}
	if res["ok"] == nil || st.Simulated != 1 || st.Failed != 1 {
		t.Fatalf("stats: %+v (results %v)", st, res)
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "sweep-*")); len(m) != 0 {
		t.Fatalf("unhashable sweep wrote journal %v", m)
	}
}
