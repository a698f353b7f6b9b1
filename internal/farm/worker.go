package farm

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/farm/api"
	"repro/internal/runner"
)

// WorkerOptions configure one worker process (or in-process worker loop).
type WorkerOptions struct {
	// Client speaks to the coordinator. Required.
	Client *Client
	// Name identifies the worker on status surfaces and in the farm
	// journal.
	Name string
	// CacheDir, when non-empty, gives the worker a local content-addressed
	// .runcache: a job whose hash is already local completes without
	// re-simulating, and every completed job leaves a local entry —
	// the same resume property an in-process sweep has. The pushed result
	// also lands in the coordinator's corpus, so the two caches converge.
	CacheDir string
	// JobTimeout bounds each simulation attempt (runner.Options.JobTimeout);
	// an expiry is pushed back as a timeout-class failure for coordinator
	// retry accounting. Zero disables it.
	JobTimeout time.Duration
	// PollWait is the long-poll window per lease request (default 10s,
	// capped server-side).
	PollWait time.Duration
	// IdleExit, when positive, makes the loop return cleanly after that
	// long without being granted a job — how a drain-and-exit worker (CI
	// smoke, batch clusters) knows it is done. Zero runs until ctx fires.
	IdleExit time.Duration
	// MaxMemMB advertises the worker's simulation memory budget at
	// registration (0 = unknown). Advisory: the coordinator surfaces it on
	// /progress, it does not gate leasing.
	MaxMemMB int
	// Logf, when non-nil, receives one line per lease/completion.
	Logf func(format string, args ...any)
}

// ErrUnauthorized marks a worker run that stopped because the coordinator
// rejected its credentials. Fatal by construction: retrying the same token
// or certificate cannot succeed, so callers should exit distinctly (see
// cmd/simfarm-worker) instead of hammering the coordinator.
var ErrUnauthorized = errors.New("farm: worker: coordinator rejected credentials")

// Work runs the pull loop: lease → execute through the runner (with the
// local cache and lease heartbeats) → push the summary or classified
// failure. It returns the number of jobs executed, and an error only for
// persistent coordinator unreachability — a canceled context is a clean
// return, and per-job failures are the coordinator's to account, not the
// worker's to die over.
func Work(ctx context.Context, o WorkerOptions) (int, error) {
	if o.Client == nil {
		return 0, fmt.Errorf("farm: worker: Client is required")
	}
	if o.Name == "" {
		o.Name = "worker"
	}
	if o.PollWait <= 0 {
		o.PollWait = 10 * time.Second
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var cache *runner.Cache
	if o.CacheDir != "" {
		cache = runner.NewCache(o.CacheDir)
	}

	// Register capabilities up front (best effort: an older coordinator
	// without the endpoint answers 404/405 and leasing works regardless).
	// A credential rejection here is fatal — every later call would be
	// rejected the same way.
	rctx, rcancel := context.WithTimeout(ctx, 10*time.Second)
	reg, rerr := o.Client.Register(rctx, api.RegisterRequest{
		Name: o.Name, Version: api.Version, MaxMemMB: o.MaxMemMB,
	})
	rcancel()
	switch {
	case rerr == nil:
		logf("registered with coordinator (%d workers known)", reg.Workers)
	case api.IsAuth(rerr):
		return 0, fmt.Errorf("%w: %v", ErrUnauthorized, rerr)
	case ctx.Err() != nil:
		return 0, nil
	default:
		logf("worker registration unavailable: %v", rerr)
	}

	executed := 0
	idleSince := time.Now()
	const maxConsecutiveErrs = 10
	consecutiveErrs := 0
	for {
		if ctx.Err() != nil {
			return executed, nil
		}
		lease, err := o.Client.Lease(ctx, o.Name, o.PollWait)
		if err != nil {
			if ctx.Err() != nil {
				return executed, nil
			}
			if api.IsAuth(err) {
				return executed, fmt.Errorf("%w: %v", ErrUnauthorized, err)
			}
			consecutiveErrs++
			if consecutiveErrs >= maxConsecutiveErrs {
				return executed, fmt.Errorf("farm: worker: coordinator unreachable: %w", err)
			}
			logf("lease error (%d/%d): %v", consecutiveErrs, maxConsecutiveErrs, err)
			select {
			case <-ctx.Done():
				return executed, nil
			case <-time.After(time.Second):
			}
			continue
		}
		consecutiveErrs = 0
		if lease == nil {
			if o.IdleExit > 0 && time.Since(idleSince) >= o.IdleExit {
				logf("idle for %v, exiting", o.IdleExit)
				return executed, nil
			}
			continue
		}
		idleSince = time.Now()
		executed++
		logf("lease %s: %s (attempt %d)", lease.ID, lease.Key, lease.Attempt)
		o.runLease(ctx, cache, lease, logf)
	}
}

// runLease executes one leased job and pushes its outcome.
func (o WorkerOptions) runLease(ctx context.Context, cache *runner.Cache, lease *api.Lease, logf func(string, ...any)) {
	hbEvery := time.Duration(lease.TTLMS) * time.Millisecond / 3
	if hbEvery <= 0 {
		hbEvery = 5 * time.Second
	}
	ropts := runner.Options{
		Parallel:       1,
		Cache:          cache,
		JobTimeout:     o.JobTimeout,
		HeartbeatEvery: hbEvery,
		OnHeartbeat: func(runner.Job) error {
			hctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
			defer cancel()
			err := o.Client.Heartbeat(hctx, lease.ID)
			if err == nil {
				return nil
			}
			if heartbeatFatal(err) {
				// lease_gone or a credential rejection: the attempt is
				// worthless now — cancel it rather than simulate on.
				logf("heartbeat %s: lease lost: %v", lease.ID, err)
				return err
			}
			// Transient (coordinator restarting, network blip): keep
			// simulating; the client already retried with backoff, and the
			// next tick tries again. The lease may lapse server-side, but
			// that is the expiry path's call, not ours.
			logf("heartbeat %s: %v", lease.ID, err)
			return nil
		},
	}
	results, _, err := runner.Run(ctx, ropts, []runner.Job{{Key: lease.Key, Spec: lease.Spec}})

	req := api.CompleteRequest{Lease: lease.ID}
	switch {
	case err == nil:
		req.Outcome = api.OutcomeOK
		req.Summary = results[lease.Key]
	default:
		var pe *runner.PanicError
		switch {
		case errors.Is(err, runner.ErrHeartbeatCanceled):
			// The coordinator already revoked this lease (and requeued or
			// failed the job under its own accounting); a Complete push
			// would only be answered lease_gone.
			logf("lease %s lost mid-attempt, abandoned", lease.ID)
			return
		case errors.Is(err, context.Canceled) || ctx.Err() != nil:
			// Shutdown mid-job: don't classify, just let the lease lapse so
			// the coordinator re-queues with its own accounting.
			logf("canceled mid-job, abandoning lease %s", lease.ID)
			return
		case errors.As(err, &pe):
			req.Outcome = api.OutcomePanic
		case errors.Is(err, runner.ErrJobTimeout):
			req.Outcome = api.OutcomeTimeout
		default:
			req.Outcome = api.OutcomeFailed
		}
		req.Error = err.Error()
	}

	// Push on an independent short deadline: a computed result must not be
	// lost to the same ctx cancellation that is shutting the worker down.
	pctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 15*time.Second)
	defer cancel()
	resp, cerr := o.Client.Complete(pctx, req)
	if cerr != nil {
		var ae *api.Error
		if errors.As(cerr, &ae) && ae.Code == api.CodeLeaseGone {
			// Benign: the lease lapsed while we pushed, or a retried
			// delivery raced its own duplicate. The job is the
			// coordinator's to account either way.
			logf("complete %s: lease already settled", lease.ID)
			return
		}
		logf("complete %s: %v", lease.ID, cerr)
		return
	}
	logf("done %s: %s → %s", lease.ID, lease.Key, resp.State)
}

// heartbeatFatal classifies a heartbeat error as attempt-ending: the
// coordinator explicitly revoked the lease (lease_gone) or rejected our
// credentials. Transport failures and 5xx are transient — the coordinator
// may be mid-restart with the lease safely journaled.
func heartbeatFatal(err error) bool {
	var ae *api.Error
	if errors.As(err, &ae) && ae.Code == api.CodeLeaseGone {
		return true
	}
	return api.IsAuth(err)
}
