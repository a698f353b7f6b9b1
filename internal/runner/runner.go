package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/sweep"
	"repro/internal/runspec"
	"repro/internal/sim"
)

// Job is one named simulation in a batch. Key is the caller's display /
// result-map key (e.g. "itesp/mcf"); the cache is addressed by the spec's
// content hash, never by Key.
type Job = runspec.Named

// PanicError is a panic recovered inside a worker and converted into an
// ordinary job failure, so one bad spec cannot kill a multi-thousand-job
// sweep. It carries the goroutine stack captured at the panic site.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// ErrJobTimeout marks a job that exceeded Options.JobTimeout. Distinct
// from batch cancellation: a timed-out job is a (retryable) failure, a
// canceled job never ran.
var ErrJobTimeout = errors.New("runner: job timeout exceeded")

// ErrHeartbeatCanceled marks an attempt aborted because the OnHeartbeat
// hook returned an error: the executor's claim on the job is gone (e.g. a
// farm lease expired or was revoked), so the simulation was cancelled
// mid-flight rather than burning CPU on work nobody will accept. Not
// retryable, and deliberately distinct from batch cancellation.
var ErrHeartbeatCanceled = errors.New("runner: attempt abandoned on heartbeat failure")

// Options configure a batch run.
type Options struct {
	// Parallel bounds concurrent simulations (default: GOMAXPROCS-1,
	// min 1). Runs are independent, so this is the simulator's one
	// parallelism axis; each run ticks its DRAM channels serially.
	Parallel int
	// Cache, when non-nil, serves hits and stores results by spec hash.
	// A cache also enables the sweep manifest: an append-only JSONL file
	// <cache-dir>/sweep-<hash>.manifest recording each job's terminal
	// state as it happens, so an interrupted or crashed sweep is
	// diagnosable from disk.
	Cache *Cache
	// KeepGoing runs every job even after failures; by default the first
	// failure cancels the queued remainder (in-flight simulations finish).
	KeepGoing bool
	// JobTimeout bounds each simulation attempt's wall-clock runtime; the
	// deadline is driven through sim.RunContext, so a wedged simulation is
	// abandoned cooperatively. Zero disables the per-job deadline.
	JobTimeout time.Duration
	// Retries re-runs a job after a retryable failure — a recovered panic
	// or a job timeout — up to this many extra attempts, deterministically
	// and without backoff (the simulator is deterministic, so a retry only
	// helps against environmental flakes: memory pressure, CPU
	// contention, wall-clock timeouts). Spec errors, simulator watchdog
	// trips, and cancellation are never retried. Default 0.
	Retries int
	// Observer, when non-nil, builds a fresh per-job observability bundle
	// for jobs that actually simulate (cache hits produce no artifacts);
	// AfterSim then runs post-simulation with the same observer, e.g. to
	// write artifact files. AfterSim errors fail the job.
	Observer func(j Job) *obs.Observer
	AfterSim func(j Job, ob *obs.Observer, res *sim.Result) error
	// OnJobDone, when non-nil, is called after each job (including cache
	// hits and failures) with the completed count and total. Calls are
	// serialized.
	OnJobDone func(done, total int, j Job, cached bool, err error)
	// Stats, when non-nil, is updated live (atomic operations) as jobs
	// reach terminal states, so gauges installed by Stats.Register and
	// Stats.Snapshot report mid-run values. Run adds the same totals it
	// returns, so one Stats may accumulate across sequential Runs.
	Stats *Stats
	// OnHeartbeat, when non-nil together with a positive HeartbeatEvery, is
	// invoked every HeartbeatEvery on a side goroutine while a job attempt
	// is simulating — the lease-aware execution hook: a farm worker renews
	// its coordinator lease here, so a lease only lapses when the process
	// itself is gone, never because a long simulation looked idle. The hook
	// runs concurrently with the simulation, must be cheap, and must not
	// panic; it stops (and is waited for) before the attempt's outcome is
	// classified. Returning a non-nil error cancels the in-flight attempt:
	// the simulation's context fires, and if the attempt then fails it is
	// reported as ErrHeartbeatCanceled (terminal, never retried) carrying
	// the hook's error. Transient heartbeat hiccups should return nil; only
	// a definitive "this attempt is worthless now" (lease gone, credentials
	// rejected) should return an error.
	OnHeartbeat    func(j Job) error
	HeartbeatEvery time.Duration
	// Telemetry, when non-nil, receives a job-lifecycle event at every
	// transition: queued → started → attempt N → cache hit/miss →
	// panic/timeout/retry → terminal outcome. When a Cache is also
	// configured, the events are journaled to
	// <cache-dir>/sweep-<hash>.telemetry.jsonl beside the sweep manifest
	// (append-only JSONL, replayable with sweep.Replay). A nil collector
	// costs one nil check per transition and changes nothing else.
	Telemetry *sweep.Collector
}

func (o Options) parallel() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	p := runtime.GOMAXPROCS(0) - 1
	if p < 1 {
		p = 1
	}
	return p
}

// runSim is the simulation entry point, returning both the live result
// (for AfterSim) and its serializable digest (for the cache and result
// map). Chaos tests stub it to inject panics, hangs, and typed failures
// without constructing real simulations.
var runSim = func(ctx context.Context, cfg sim.Config) (*sim.Result, *sim.Summary, error) {
	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		return nil, nil, err
	}
	return res, res.Summarize(), nil
}

// outcome is one job's terminal record plus the event counts accumulated
// across its attempts.
type outcome struct {
	sum      *sim.Summary
	cached   bool
	err      error
	attempts int
	panics   int
	timeouts int
	corrupt  int
}

// canceledOutcome reports whether err means "the batch stopped before this
// job ran": both context.Canceled and a parent-context deadline classify
// as canceled, distinct from the per-job timeout (ErrJobTimeout), which is
// a failure of the job itself.
func canceledOutcome(err error) bool {
	if errors.Is(err, ErrJobTimeout) {
		return false
	}
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Run executes jobs and returns summaries keyed by Job.Key, plus the batch
// stats. Every failure is reported: the returned error errors.Join-s one
// error per failed job (prefixed with its key), and jobs skipped by
// cancellation are counted so missing results are always accounted for —
// a key absent from the map is named in the error, never silently dropped.
//
// Cancellation drains: once ctx fires, queued jobs are skipped (counted
// Canceled) while in-flight simulations run to completion and land in the
// cache, so an interrupted sweep loses no finished work. Each in-flight
// job remains bounded by Options.JobTimeout.
func Run(ctx context.Context, opts Options, jobs []Job) (map[string]*sim.Summary, Stats, error) {
	var stats Stats
	stats.addJobs(len(jobs))
	results := make(map[string]*sim.Summary, len(jobs))
	if len(jobs) == 0 {
		return results, stats, nil
	}
	if opts.Stats != nil {
		opts.Stats.addJobs(len(jobs))
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	outcomes := make([]outcome, len(jobs))

	// The sweep journals are named by the job set's content. A set with an
	// unhashable spec has no identity, so it gets no journals; that job
	// still fails with its spec error below.
	var sweepID string
	if opts.Cache != nil {
		if id, err := runspec.SweepID(jobs); err == nil {
			sweepID = id
		}
	}
	journal := sweepID != ""
	var manifest *Manifest
	var manifestErr error
	if journal {
		manifest, manifestErr = OpenManifest(opts.Cache.Dir(), sweepID, len(jobs))
	}

	// Telemetry: journal lifecycle events beside the manifest when both a
	// collector and a cache are configured, and record the whole job set as
	// queued before any worker starts.
	tel := opts.Telemetry
	var telFile *os.File
	var telErr error
	if tel != nil {
		if journal {
			telFile, telErr = openTelemetry(opts.Cache.Dir(), sweepID)
			if telErr == nil {
				tel.AttachSink(telFile)
			}
		}
		tel.SweepStart(len(jobs))
		for _, j := range jobs {
			h, _ := j.Spec.Hash()
			tel.JobQueued(j.Key, h)
		}
	}

	// The pool owns a fixed set of workers pulling job indices from a
	// channel: acquiring a worker happens before any per-job work, so a
	// multi-thousand-job sweep never materializes one goroutine per job.
	idx := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex // serializes done counting, OnJobDone, manifest appends
	done := 0
	report := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		done++
		out := outcomes[i]
		if manifest != nil {
			if err := manifest.AppendJob(jobs[i], out); err != nil && manifestErr == nil {
				manifestErr = err
			}
		}
		if opts.Stats != nil {
			opts.Stats.accumulate(out)
		}
		if tel != nil {
			errText := ""
			if out.err != nil {
				errText = out.err.Error()
			}
			tel.JobDone(jobs[i].Key, outcomeState(out), out.attempts, errText)
		}
		if opts.OnJobDone != nil {
			opts.OnJobDone(done, len(jobs), jobs[i], out.cached, out.err)
		}
	}
	workers := opts.parallel()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if err := ctx.Err(); err != nil {
					outcomes[i] = outcome{err: err}
					report(i)
					continue
				}
				out := runJob(ctx, opts, jobs[i])
				outcomes[i] = out
				if out.err != nil && !opts.KeepGoing && !canceledOutcome(out.err) {
					cancel()
				}
				report(i)
			}
		}()
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()

	var errs []error
	for i, out := range outcomes {
		stats.accumulate(out)
		switch {
		case out.err == nil:
			results[jobs[i].Key] = out.sum
		case canceledOutcome(out.err):
		default:
			errs = append(errs, fmt.Errorf("%s: %w", jobs[i].Key, out.err))
		}
	}
	if stats.Canceled > 0 {
		errs = append(errs, fmt.Errorf("runner: %d jobs canceled before running (completed results are cached; rerun to resume)", stats.Canceled))
	}
	if manifest != nil {
		if err := manifest.Close(); err != nil && manifestErr == nil {
			manifestErr = err
		}
	}
	if manifestErr != nil {
		errs = append(errs, fmt.Errorf("runner: sweep manifest: %w", manifestErr))
	}
	if tel != nil {
		tel.SweepEnd()
		tel.AttachSink(nil)
		if err := tel.SinkErr(); err != nil && telErr == nil {
			telErr = err
		}
		if telFile != nil {
			serr := telFile.Sync()
			cerr := telFile.Close()
			if telErr == nil && serr != nil {
				telErr = serr
			}
			if telErr == nil && cerr != nil {
				telErr = cerr
			}
		}
		if telErr != nil {
			errs = append(errs, fmt.Errorf("runner: sweep telemetry: %w", telErr))
		}
	}
	return results, stats, errors.Join(errs...)
}

// openTelemetry opens (creating dir as needed) the append-only telemetry
// journal for the sweep sweepID.
func openTelemetry(dir, sweepID string) (*os.File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return os.OpenFile(TelemetryPath(dir, sweepID), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// runJob resolves one job: cache hit → load, miss → simulate (with
// retries for retryable failure classes) → store.
func runJob(ctx context.Context, opts Options, j Job) (out outcome) {
	tel := opts.Telemetry
	hash, herr := j.Spec.Hash()
	tel.JobStarted(j.Key, hash)
	if herr != nil {
		out.err = herr
		return out
	}
	if opts.Cache != nil {
		sum, err := opts.Cache.LoadEntry(hash)
		switch {
		case err == nil:
			tel.CacheHit(j.Key)
			out.sum, out.cached = sum, true
			return out
		case errors.Is(err, ErrCacheCorrupt):
			out.corrupt++ // quarantined by LoadEntry; fall through to re-simulate
			tel.CacheCorrupt(j.Key)
		default:
			tel.CacheMiss(j.Key)
		}
	}
	cfg, err := j.Spec.SimConfig()
	if err != nil {
		out.err = err // spec errors are deterministic: never retried
		return out
	}
	for {
		out.attempts++
		tel.JobAttempt(j.Key, out.attempts)
		sum, err := runOnce(ctx, opts, j, cfg)
		if err == nil {
			if opts.Cache != nil {
				if serr := opts.Cache.Store(hash, j.Spec.Normalized(), sum); serr != nil {
					out.err = serr
					return out
				}
			}
			out.sum = sum
			return out
		}
		var pe *PanicError
		retryable := false
		switch {
		case errors.As(err, &pe):
			out.panics++
			retryable = true
			tel.JobPanic(j.Key, out.attempts)
		case errors.Is(err, ErrJobTimeout):
			out.timeouts++
			retryable = true
			tel.JobTimeout(j.Key, out.attempts)
		}
		if retryable && out.attempts <= opts.Retries && ctx.Err() == nil {
			tel.JobRetry(j.Key, out.attempts)
			continue // deterministic re-run, no backoff
		}
		out.err = err
		return out
	}
}

// runOnce executes a single simulation attempt: a fresh observer, the
// per-job deadline driven through the simulator's context plumbing, and a
// recover barrier converting panics (in the simulator or the caller's
// Observer/AfterSim hooks) into PanicError failures.
func runOnce(ctx context.Context, opts Options, j Job, cfg sim.Config) (sum *sim.Summary, err error) {
	// In-flight work is never aborted by batch cancellation — cancellation
	// drains (queued jobs are skipped, running ones finish and cache).
	// The only cancellation a job itself observes is its own deadline.
	jctx := context.WithoutCancel(ctx)
	if opts.JobTimeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(jctx, opts.JobTimeout)
		defer cancel()
	}
	var hbMu sync.Mutex
	var hbErr error
	if opts.OnHeartbeat != nil && opts.HeartbeatEvery > 0 {
		// A failing heartbeat cancels the attempt's context so the
		// simulation aborts cooperatively instead of running to completion
		// for a claim that no longer exists.
		var hbCancel context.CancelFunc
		jctx, hbCancel = context.WithCancel(jctx)
		defer hbCancel()
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			t := time.NewTicker(opts.HeartbeatEvery)
			defer t.Stop()
			for {
				select {
				case <-stop:
					return
				case <-t.C:
					if err := opts.OnHeartbeat(j); err != nil {
						hbMu.Lock()
						hbErr = err
						hbMu.Unlock()
						hbCancel()
						return
					}
				}
			}
		}()
		defer func() {
			close(stop)
			<-done
		}()
	}
	defer func() {
		if r := recover(); r != nil {
			sum, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	var ob *obs.Observer
	if opts.Observer != nil {
		ob = opts.Observer(j)
	}
	cfg.Obs = ob
	res, s, err := runSim(jctx, cfg)
	if err != nil {
		hbMu.Lock()
		herr := hbErr
		hbMu.Unlock()
		if herr != nil {
			// The heartbeat hook condemned the attempt and the cancel took
			// it down. Wrap only ErrHeartbeatCanceled (%w) — the underlying
			// context.Canceled must not leak into the chain, or the failure
			// would misclassify as batch cancellation.
			return nil, fmt.Errorf("%w: %v (attempt error: %v)", ErrHeartbeatCanceled, herr, err)
		}
		if opts.JobTimeout > 0 && jctx.Err() != nil && errors.Is(err, context.DeadlineExceeded) {
			// The job's own deadline fired, not the batch context: report a
			// retryable timeout that deliberately does not wrap the
			// deadline error, so it can never classify as canceled.
			return nil, fmt.Errorf("%w (%v): %v", ErrJobTimeout, opts.JobTimeout, err)
		}
		return nil, err
	}
	if opts.AfterSim != nil {
		if err := opts.AfterSim(j, ob, res); err != nil {
			return nil, err
		}
	}
	return s, nil
}
