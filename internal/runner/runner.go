package runner

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
// from batch cancellation: a timed-out job is a failure, a canceled job
// never ran.
var ErrJobTimeout = errors.New("runner: job timeout exceeded")

// ErrHeartbeatCanceled marks an attempt aborted because the OnHeartbeat
// hook returned an error: the executor's claim on the job is gone (e.g. a
// farm lease expired or was revoked), so the simulation was cancelled
// mid-flight rather than burning CPU on work nobody will accept.
// Deliberately distinct from batch cancellation.
var ErrHeartbeatCanceled = errors.New("runner: attempt abandoned on heartbeat failure")

// Options configure a batch run.
type Options struct {
	// Parallel bounds concurrent simulations (default when <= 0:
	// GOMAXPROCS, min 1). Runs are independent, so this is the simulator's
	// one parallelism axis; each run ticks its DRAM channels serially. The
	// default reserves no CPU: the caller only blocks until the pool
	// drains, and the per-job hooks cost microseconds.
	Parallel int
	// Cache, when non-nil, serves hits and stores results by spec hash.
	Cache *Cache
	// KeepGoing runs every job even after failures; by default the first
	// failure cancels the queued remainder (in-flight simulations finish).
	KeepGoing bool
	// JobTimeout bounds each simulation's wall-clock runtime; the deadline
	// is driven through sim.RunContext, so a wedged simulation is abandoned
	// cooperatively. Zero disables the per-job deadline. Each job is
	// simulated at most once: the simulator is deterministic, so a re-run
	// of a panicked job panics again.
	JobTimeout time.Duration
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
	// OnHeartbeat, when non-nil together with a positive HeartbeatEvery, is
	// invoked every HeartbeatEvery on a side goroutine while a job attempt
	// is simulating — the lease-aware execution hook: a farm worker renews
	// its coordinator lease here, so a lease only lapses when the process
	// itself is gone, never because a long simulation looked idle. The hook
	// runs concurrently with the simulation, must be cheap, and must not
	// panic; it stops (and is waited for) before the attempt's outcome is
	// classified. Returning a non-nil error cancels the in-flight attempt:
	// the simulation's context fires, and if the attempt then fails it is
	// reported as ErrHeartbeatCanceled carrying the hook's error. Transient
	// heartbeat hiccups should return nil; only a definitive "this attempt
	// is worthless now" (lease gone, credentials rejected) should return an
	// error.
	OnHeartbeat    func(j Job) error
	HeartbeatEvery time.Duration
	// Telemetry, when non-nil, receives a job-lifecycle event at every
	// transition: queued → started → cache hit/miss/corrupt → attempt →
	// panic/timeout → done (a canceled job goes queued → done). It is the
	// only count of what a Run did: a nil collector keeps no counts, and
	// Run's error still names every failed and canceled job. When a Cache
	// is also configured, the events are journaled to TelemetryPath — the
	// sweep's one on-disk journal, recording each job's key, hash, terminal
	// outcome, attempts and error text as it happens, so an interrupted or
	// crashed sweep is diagnosable from disk (append-only JSONL, replayable
	// with sweep.Replay). A nil collector costs one nil check per
	// transition and changes nothing else.
	Telemetry *sweep.Collector
}

func (o Options) parallel() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return max(runtime.GOMAXPROCS(0), 1)
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

// outcome is one job's terminal record. attempts is 1 when the job was
// simulated (successfully or not) and 0 otherwise.
type outcome struct {
	sum      *sim.Summary
	cached   bool
	err      error
	attempts int
}

// outcomeState classifies a terminal outcome into the telemetry journal's
// sweep.Outcome* vocabulary.
func outcomeState(out outcome) string {
	var pe *PanicError
	switch {
	case out.err == nil && out.cached:
		return sweep.OutcomeCached
	case out.err == nil:
		return sweep.OutcomeDone
	case canceledOutcome(out.err):
		return sweep.OutcomeCanceled
	case errors.Is(out.err, ErrJobTimeout):
		return sweep.OutcomeTimeout
	case errors.As(out.err, &pe):
		return sweep.OutcomePanic
	default:
		return sweep.OutcomeFailed
	}
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

// Run executes jobs and returns summaries keyed by Job.Key. Every failure
// is reported: the returned error errors.Join-s one error per failed job
// (prefixed with its key), and jobs skipped by cancellation are counted in
// it, so missing results are always accounted for — a key absent from the
// map is a failure named in the error or one of the canceled jobs. Counts
// of what the batch did are kept by Options.Telemetry.
// A batch with an empty or duplicate key (runspec.CheckKeys) is rejected
// whole, before any job runs or any journal opens.
//
// Cancellation drains: once ctx fires, queued jobs are skipped (journaled
// canceled) while in-flight simulations run to completion and land in the
// cache, so an interrupted sweep loses no finished work. Each in-flight
// job remains bounded by Options.JobTimeout.
func Run(ctx context.Context, opts Options, jobs []Job) (map[string]*sim.Summary, error) {
	if err := runspec.CheckKeys(jobs); err != nil {
		return nil, err
	}
	results := make(map[string]*sim.Summary, len(jobs))
	if len(jobs) == 0 {
		return results, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	outcomes := make([]outcome, len(jobs))

	// Telemetry: journal lifecycle events when both a collector and a
	// cache are configured, and record the whole job set as queued before
	// any worker starts. The journal is named by the job set's content; a
	// set with an unhashable spec has no identity, so it gets no journal
	// (that job still fails with its spec error below).
	tel := opts.Telemetry
	var telFile *os.File
	var telErr error
	if tel != nil {
		if opts.Cache != nil {
			if id, err := runspec.SweepID(jobs); err == nil {
				telFile, telErr = openTelemetry(opts.Cache.Dir(), id)
				if telErr == nil {
					tel.AttachSink(telFile)
				}
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
	var mu sync.Mutex // serializes done counting, OnJobDone, telemetry done events
	done := 0
	report := func(i int) {
		mu.Lock()
		defer mu.Unlock()
		done++
		out := outcomes[i]
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
	canceled := 0
	for i, out := range outcomes {
		switch {
		case out.err == nil:
			results[jobs[i].Key] = out.sum
		case canceledOutcome(out.err):
			canceled++
		default:
			errs = append(errs, fmt.Errorf("%s: %w", jobs[i].Key, out.err))
		}
	}
	if canceled > 0 {
		errs = append(errs, fmt.Errorf("runner: %d jobs canceled before running (completed results are cached; rerun to resume)", canceled))
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
	return results, errors.Join(errs...)
}

// TelemetryPath returns the job-lifecycle telemetry journal under dir for
// the sweep whose runspec.SweepID is sweepID.
func TelemetryPath(dir, sweepID string) string {
	return filepath.Join(dir, "sweep-"+sweepID+".telemetry.jsonl")
}

// openTelemetry opens (creating dir as needed) the append-only telemetry
// journal for the sweep sweepID.
func openTelemetry(dir, sweepID string) (*os.File, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return os.OpenFile(TelemetryPath(dir, sweepID), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

// runJob resolves one job: cache hit → load, miss → simulate once → store.
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
			tel.CacheCorrupt(j.Key) // quarantined by LoadEntry; re-simulate
		default:
			tel.CacheMiss(j.Key)
		}
	}
	cfg, err := j.Spec.SimConfig()
	if err != nil {
		out.err = err
		return out
	}
	out.attempts = 1
	tel.JobAttempt(j.Key, 1)
	sum, err := runOnce(ctx, opts, j, cfg)
	var pe *PanicError
	switch {
	case err == nil && opts.Cache != nil:
		err = opts.Cache.Store(hash, j.Spec.Normalized(), sum)
	case errors.As(err, &pe):
		tel.JobPanic(j.Key, 1)
	case errors.Is(err, ErrJobTimeout):
		tel.JobTimeout(j.Key, 1)
	}
	if err != nil {
		out.err = err
		return out
	}
	out.sum = sum
	return out
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
			// timeout that deliberately does not wrap the deadline error,
			// so it can never classify as canceled.
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
