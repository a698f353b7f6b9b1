package runner

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/obs/sweep"
	"repro/internal/sim"
)

// counts strips the wall-clock fields from a Progress, leaving what a
// replayed journal and the live collector must agree on exactly.
func counts(p sweep.Progress) sweep.Progress {
	p.ElapsedS, p.JobsPerSec, p.EtaS, p.Slowest = 0, 0, 0, nil
	return p
}

// replayMatchesLive replays the journal at path and fails unless it gives
// the live collector's counts.
func replayMatchesLive(t *testing.T, path string, col *sweep.Collector) sweep.Progress {
	t.Helper()
	replayed, err := sweep.ReplayFile(path)
	if err != nil {
		t.Fatalf("replay %s: %v", path, err)
	}
	live := col.Snapshot()
	if replayed.Events == 0 {
		t.Fatalf("telemetry journal %s is empty", path)
	}
	if got, want := counts(replayed), counts(live); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed journal diverges from the live collector:\n  replay: %+v\n  live:   %+v", got, want)
	}
	return live
}

// TestJournalPerJobEventOrder pins each job's event sequence in the
// journal — the order perfbench's set-up and run times are computed from:
// queued → started → cache_* → attempt → done, with a canceled job never
// reaching started or attempt.
func TestJournalPerJobEventOrder(t *testing.T) {
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		if cfg.Seed == seedPanic {
			panic("fail and cancel the rest")
		}
		return stubOK(cfg)
	})
	dir := t.TempDir()
	cache := NewCache(dir)
	jobs := []Job{
		stubJob("hit", seedOK), stubJob("sim", seedOK+10),
		stubJob("boom", seedPanic), stubJob("skip", seedOK+20),
	}
	if _, err := Run(context.Background(), Options{Parallel: 1, Cache: cache}, jobs[:1]); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), Options{Parallel: 1, Cache: cache, Telemetry: sweep.New()}, jobs); err == nil {
		t.Fatal("want the panic and the canceled job in the error")
	}

	evs := readJournal(t, TelemetryPath(dir, mustSweepID(t, jobs)))
	if first, last := evs[0], evs[len(evs)-1]; first.Type != sweep.EventSweepStart || first.Jobs != 4 || last.Type != sweep.EventSweepEnd {
		t.Fatalf("journal must open with sweep_start(4) and close with sweep_end: %+v … %+v", first, last)
	}
	perJob := map[string][]string{}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d: seq must be contiguous from 1", i, ev.Seq)
		}
		if ev.Key == "" {
			continue
		}
		step := ev.Type
		switch ev.Type {
		case sweep.EventAttempt, sweep.EventPanic:
			step += fmt.Sprint(ev.Attempt)
		case sweep.EventDone:
			step += fmt.Sprintf("/%s/%d", ev.Outcome, ev.Attempt)
		}
		perJob[ev.Key] = append(perJob[ev.Key], step)
	}
	want := map[string][]string{
		"hit":  {"queued", "started", "cache_hit", "done/cached/0"},
		"sim":  {"queued", "started", "cache_miss", "attempt1", "done/done/1"},
		"boom": {"queued", "started", "cache_miss", "attempt1", "panic1", "done/panic/1"},
		"skip": {"queued", "done/canceled/0"},
	}
	if !reflect.DeepEqual(perJob, want) {
		t.Fatalf("per-job event order:\n  got:  %v\n  want: %v", perJob, want)
	}
}

// TestTelemetryChaosReplayMatchesStats is the integrity check for the sweep
// journal:
// a Parallel=2 sweep with a panic, a timeout, a corrupt cache entry and a
// mid-sweep cancel, then a resume appended to the same journal, replays to
// exactly the counts the live collector reports. A reader polls the
// collector throughout, so -race checks that mid-run reads are safe.
func TestTelemetryChaosReplayMatchesStats(t *testing.T) {
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		switch cfg.Seed {
		case seedPanic:
			panic("replay chaos panic")
		case seedHang:
			return stubHang(ctx)
		default:
			return stubOK(cfg)
		}
	})
	dir := t.TempDir()
	cache := NewCache(dir)
	jobs := []Job{stubJob("corrupt", seedOK), stubJob("boom", seedPanic), stubJob("wedge", seedHang)}
	for i := 1; i <= 6; i++ {
		jobs = append(jobs, stubJob(fmt.Sprintf("ok%d", i), int64(seedOK+10*i)))
	}
	h, err := jobs[0].Spec.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cache.Path(h), []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	col := sweep.New()
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if p := col.Snapshot(); p.Completed+p.InFlight > p.Jobs {
				t.Errorf("inconsistent mid-run snapshot: %+v", p)
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	// First sweep: an operator interrupt fires once two jobs are done.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{
		Parallel: 2, Cache: cache, KeepGoing: true, JobTimeout: 30 * time.Millisecond, Telemetry: col,
		OnJobDone: func(done, total int, j Job, cached bool, err error) {
			if done == 2 {
				cancel()
			}
		},
	}
	if _, err := Run(ctx, opts, jobs); err == nil {
		t.Fatal("want the interrupted sweep to report canceled jobs")
	}
	if p := col.Snapshot(); p.Canceled == 0 || p.CacheCorrupt != 1 {
		t.Fatalf("interrupted sweep must cancel queued jobs and quarantine the corrupt entry: %+v", p)
	}
	path := TelemetryPath(dir, mustSweepID(t, jobs))
	replayMatchesLive(t, path, col)

	// Resume with the same collector: the journal gains a second batch.
	opts.OnJobDone = nil
	if _, err := Run(context.Background(), opts, jobs); err == nil {
		t.Fatal("want the resumed sweep to report the panic and the timeout")
	}
	close(stop)
	reader.Wait()

	p := replayMatchesLive(t, path, col)
	if p.Jobs != 2*len(jobs) || p.Completed != p.Jobs || p.InFlight != 0 {
		t.Fatalf("both batches must be fully accounted for: %+v", p)
	}
	if p.Panics == 0 || p.Timeouts == 0 || p.CacheCorrupt != 1 || p.Cached == 0 || p.Retries != 0 {
		t.Fatalf("chaos counts: %+v", p)
	}
}

// TestTelemetryCanceledJobsJournaled: jobs skipped by a batch-canceling
// failure still get terminal events, so the journal accounts for every job.
func TestTelemetryCanceledJobsJournaled(t *testing.T) {
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		if cfg.Seed == seedPanic {
			panic("cancel the rest")
		}
		return stubOK(cfg)
	})
	dir := t.TempDir()
	cache := NewCache(dir)
	jobs := []Job{
		stubJob("boom", seedPanic), stubJob("a", seedOK),
		stubJob("b", seedOK+20), stubJob("c", seedOK+30),
	}
	col := sweep.New()
	_, st, err := run(context.Background(), Options{
		Parallel: 1, Cache: cache, Telemetry: col,
	}, jobs)
	if err == nil {
		t.Fatal("want error")
	}
	if st.Canceled != 3 || st.Failed != 1 {
		t.Fatalf("stats: %+v", st)
	}
	replayMatchesLive(t, TelemetryPath(dir, mustSweepID(t, jobs)), col)
}

// TestTelemetryWithoutCacheStreamsOnly: a collector without a cache journals
// nothing to disk but still feeds subscribers and snapshots.
func TestTelemetryWithoutCacheStreamsOnly(t *testing.T) {
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		return stubOK(cfg)
	})
	col := sweep.New()
	events, cancel := col.Subscribe(64)
	defer cancel()
	jobs := []Job{stubJob("a", seedOK), stubJob("b", seedOK+10)}
	_, st, err := run(context.Background(), Options{Parallel: 1, Telemetry: col}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Simulated != 2 {
		t.Fatalf("stats: %+v", st)
	}
	var done, sweepEnd int
	for drained := false; !drained; {
		select {
		case ev := <-events:
			switch ev.Type {
			case sweep.EventDone:
				done++
			case sweep.EventSweepEnd:
				sweepEnd++
			}
		default:
			drained = true
		}
	}
	if done != 2 || sweepEnd != 1 {
		t.Fatalf("streamed events: done=%d sweep_end=%d", done, sweepEnd)
	}
}

// TestStatsLiveReads: the collector is readable while a sweep runs. The
// batch size is registered before any job finishes, and the terminal counts
// tick as each job completes, not only when Run returns.
func TestStatsLiveReads(t *testing.T) {
	release := make(chan struct{})
	stubSim(t, func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
		<-release
		return stubOK(cfg)
	})
	col := sweep.New()
	jobs := []Job{stubJob("a", seedOK), stubJob("b", seedOK+20), stubJob("c", seedOK+30)}

	var wg sync.WaitGroup
	wg.Add(1)
	var runErr error
	go func() {
		defer wg.Done()
		_, runErr = Run(context.Background(), Options{Parallel: 1, Telemetry: col}, jobs)
	}()

	deadline := time.After(5 * time.Second)
	for col.Snapshot().Jobs != 3 {
		select {
		case <-deadline:
			t.Fatal("live Jobs never reached 3")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	release <- struct{}{} // finish the first job
	for col.Snapshot().Simulated < 1 {
		select {
		case <-deadline:
			t.Fatal("live Simulated never ticked mid-run")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	if p := col.Snapshot(); p.Completed >= 3 {
		t.Fatalf("every job completed while two were still held: %+v", p)
	}
	close(release)
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if p := col.Snapshot(); p.Jobs != 3 || p.Simulated != 3 || p.Completed != 3 || p.InFlight != 0 {
		t.Fatalf("final counts: %+v", p)
	}
}
