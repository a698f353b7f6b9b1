package farm

import (
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/farm/api"
	"repro/internal/obs/sweep"
	"repro/internal/runner"
	"repro/internal/runspec"
)

// Config parameterizes a Coordinator.
type Config struct {
	// CacheDir roots the shared result corpus (the same content-addressed
	// layout as the runner's .runcache, via runner.Cache) and the farm
	// journal. Required.
	CacheDir string
	// LeaseTTL is how long a granted lease stays valid without a heartbeat
	// (default 30s). Workers heartbeat well inside it (TTL/3 via the
	// runner's heartbeat hook), so an expiry means the worker is gone, not
	// slow.
	LeaseTTL time.Duration
	// Retries is how many extra attempts a job gets after a retryable loss
	// — a lapsed lease, a worker-reported panic, or a worker-side timeout —
	// before it is marked failed (default 1). This is the farm's reuse of
	// the runner's retry accounting: attempts are counted at lease time, so
	// a job bounced between dying workers converges instead of cycling
	// forever.
	Retries int
	// Collector, when non-nil, receives forwarded lifecycle spans for every
	// job (queued/started/attempt/expired/retry/done), aggregated across
	// all workers; it feeds the coordinator's /progress, /metrics, and
	// /events endpoints.
	Collector *sweep.Collector
	// Clock is the test seam for lease expiry; nil means time.Now.
	Clock func() time.Time
	// Token, when non-empty, is the shared bearer token every request must
	// present (Authorization: Bearer <token>, compared constant-time).
	// Enforced by Handler across the whole surface, status endpoints
	// included. Empty disables token auth.
	Token string
	// CompactBytes triggers journal compaction once the journal file
	// outgrows this many bytes (and has at least doubled since the last
	// compaction, so a large live state cannot thrash). Default 1 MiB;
	// negative disables threshold compaction (startup and Close still
	// compact).
	CompactBytes int64
}

// job is the coordinator's bookkeeping for one unique spec hash. A hash
// submitted by several sweeps (or several times by one client) is one job:
// the farm deduplicates work by content, exactly like the result cache.
type job struct {
	key      string // display key of the first submitter
	hash     string
	spec     runspec.Spec
	state    string // api.State*
	attempts int
	lease    string
	worker   string
	expiry   time.Time
	summary  *runner.Entry
	errText  string
}

// Coordinator owns the farm's job state machine: a durable pull queue of
// unique specs, lease/heartbeat/expiry tracking, the shared result corpus,
// and a crash-safe JSONL journal of every transition. All methods are safe
// for concurrent use; Lease long-polls without holding the lock.
//
// State machine per job (states are api.State*):
//
//	submit ──(corpus hit)──▶ cached
//	submit ─▶ queued ─▶ leased ─▶ done
//	                      │  ▲
//	 (expiry/panic/timeout│  │ re-lease, attempts ≤ Retries)
//	                      ▼  │
//	                    queued ─ ... ─▶ failed (attempts exhausted
//	                                            or non-retryable error)
//
// cached, done, and failed are terminal. Attempts are charged at lease
// time, so every path through leased — completion, classified failure, or
// silent lease expiry — costs exactly one attempt.
type Coordinator struct {
	cfg   Config
	cache *runner.Cache

	quit     chan struct{} // closed by Shutdown: long-polls return empty
	quitOnce sync.Once

	mu        sync.Mutex
	jobs      map[string]*job // by spec hash
	queue     []string        // pending hashes, FIFO
	leases    map[string]*job // live leases by lease ID
	sweeps    map[string]*sweepState
	workers   map[string]*api.WorkerStatus // registered workers by name
	leaseSeq  uint64
	wake      chan struct{} // closed and replaced whenever work is queued
	journal   *journal
	jerr      error // first journal write error (reported by Close)
	compacted int64 // journal size right after the last compaction
}

// sweepState remembers a submitted sweep: its job hashes in submission
// order and the keys that sweep used for them (the same hash may carry
// different display keys in different sweeps).
type sweepState struct {
	hashes []string
	keys   []string
}

// NewCoordinator opens a coordinator over the given corpus directory,
// creating it (and the farm journal inside it) as needed.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.CacheDir == "" {
		return nil, fmt.Errorf("farm: CacheDir is required")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	if cfg.CompactBytes == 0 {
		cfg.CompactBytes = 1 << 20
	}
	// Read the previous lifetime's journal before reopening it for append:
	// replay rebuilds the queue, job table, and sweeps, then compaction
	// rewrites the file down to the minimal equivalent record set.
	recs, err := ReadJournal(JournalPath(cfg.CacheDir))
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("farm: replay: %w", err)
	}
	j, err := openJournal(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		cache:   runner.NewCache(cfg.CacheDir),
		quit:    make(chan struct{}),
		jobs:    map[string]*job{},
		leases:  map[string]*job{},
		sweeps:  map[string]*sweepState{},
		workers: map[string]*api.WorkerStatus{},
		wake:    make(chan struct{}),
		journal: j,
	}
	c.mu.Lock()
	c.replayLocked(recs)
	c.compactLocked()
	c.mu.Unlock()
	return c, nil
}

// Shutdown begins a graceful stop: every long-polling Lease returns empty
// immediately (workers just poll again and ride out the restart via their
// retry policy), and no new long-polls park. Idempotent and safe from any
// goroutine; call before the HTTP server drains so parked lease handlers
// cannot hold the drain open for the full poll window.
func (c *Coordinator) Shutdown() {
	c.quitOnce.Do(func() { close(c.quit) })
}

// Close compacts the journal down to the live state and closes it,
// reporting the first journal error encountered during the coordinator's
// lifetime.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.compactLocked()
	err := c.journal.close()
	if c.jerr != nil {
		return c.jerr
	}
	return err
}

// record journals one transition; the first failure is remembered, never
// propagated into the serving path (the journal is a post-mortem aid, not
// a dependency). Once the journal outgrows the compaction threshold (and
// has at least doubled since the last compaction), it is rewritten in
// place to the minimal live-state record set. Callers hold c.mu.
func (c *Coordinator) record(rec JournalRecord) {
	rec.TMS = c.cfg.Clock().UnixMilli()
	if err := c.journal.append(rec); err != nil && c.jerr == nil {
		c.jerr = err
	}
	if c.cfg.CompactBytes > 0 {
		if n := c.journal.bytes(); n > c.cfg.CompactBytes && n > 2*c.compacted {
			c.compactLocked()
		}
	}
}

// notify wakes every long-polling Lease call. Callers hold c.mu.
func (c *Coordinator) notify() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// Submit registers a sweep and returns its content-derived ID. Submission
// is idempotent: re-submitting a job list (in any order) returns the same
// sweep in whatever state it has reached. Jobs whose hash already has a
// corpus entry are satisfied immediately (state cached) and never
// dispatched; jobs whose hash is already known to the coordinator — from
// this or any other sweep — are shared, not duplicated.
func (c *Coordinator) Submit(jobs []runspec.Named) (*api.SubmitResponse, error) {
	if err := runspec.ValidateBatch(jobs); err != nil {
		return nil, &api.Error{Code: api.CodeBadRequest, Message: err.Error()}
	}
	id, err := runspec.SweepID(jobs)
	if err != nil {
		return nil, &api.Error{Code: api.CodeBadRequest, Message: err.Error()}
	}

	c.mu.Lock()
	defer c.mu.Unlock()

	st := c.sweeps[id]
	if st == nil {
		st = &sweepState{}
		for _, nj := range jobs {
			h, _ := nj.Spec.Hash()
			st.hashes = append(st.hashes, h)
			st.keys = append(st.keys, nj.Key)
		}
		c.sweeps[id] = st
		c.record(JournalRecord{Kind: "submit", Sweep: id, Jobs: len(jobs), Keys: st.keys, Hashes: st.hashes})
	}

	resp := &api.SubmitResponse{Sweep: id, Jobs: len(st.hashes)}
	queuedNew := false
	var fresh int
	for i, h := range st.hashes {
		j := c.jobs[h]
		if j == nil {
			fresh++
			j = &job{key: st.keys[i], hash: h, state: api.StateQueued}
			for _, nj := range jobs {
				if jh, _ := nj.Spec.Hash(); jh == h {
					j.spec = nj.Spec
					break
				}
			}
			c.jobs[h] = j
			c.cfg.Collector.JobQueued(j.key, h)
			// Spec rides in the journal record so a restarted coordinator
			// can re-lease (or re-serve) the job from the journal alone.
			sp := j.spec
			if sum, ok := c.cache.Load(h); ok {
				// Corpus hit: the sweep short-circuits dispatch entirely.
				j.state = api.StateCached
				j.summary = &runner.Entry{Hash: h, Spec: j.spec.Normalized(), Summary: sum}
				c.cfg.Collector.CacheHit(j.key)
				c.cfg.Collector.JobDone(j.key, sweep.OutcomeCached, 0, "")
				c.record(JournalRecord{Kind: "cached", Sweep: id, Key: j.key, Hash: h, Spec: &sp})
			} else {
				c.queue = append(c.queue, h)
				queuedNew = true
				c.record(JournalRecord{Kind: "queued", Sweep: id, Key: j.key, Hash: h, Spec: &sp})
			}
		}
		switch j.state {
		case api.StateCached:
			resp.Cached++
		case api.StateDone:
			resp.Done++
		case api.StateFailed:
			resp.Failed++
		default:
			resp.Pending++
		}
	}
	if fresh > 0 {
		c.cfg.Collector.SweepStart(fresh)
	}
	if queuedNew {
		c.notify()
	}
	return resp, nil
}

// Lease grants the next queued job, long-polling up to wait when the queue
// is empty. It returns (nil, nil) when nothing became available — the
// worker simply polls again. Expired leases are lapsed lazily on every
// call, so a coordinator with no background ticker still converges.
func (c *Coordinator) Lease(ctx context.Context, worker string, wait time.Duration) (*api.Lease, error) {
	deadline := c.cfg.Clock().Add(wait)
	for {
		select {
		case <-c.quit:
			// Draining for shutdown: answer empty instead of parking or
			// granting a lease the restart would immediately orphan.
			return nil, nil
		default:
		}
		c.mu.Lock()
		c.expireLocked(c.cfg.Clock())
		if l := c.leaseLocked(worker); l != nil {
			c.mu.Unlock()
			return l, nil
		}
		wake := c.wake
		c.mu.Unlock()

		remain := deadline.Sub(c.cfg.Clock())
		if remain <= 0 {
			return nil, nil
		}
		timer := time.NewTimer(remain)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-c.quit:
			timer.Stop()
			return nil, nil
		case <-timer.C:
			return nil, nil
		case <-wake:
			timer.Stop()
		}
	}
}

// leaseLocked pops the next queued job and grants a lease. Callers hold
// c.mu.
func (c *Coordinator) leaseLocked(worker string) *api.Lease {
	for len(c.queue) > 0 {
		h := c.queue[0]
		c.queue = c.queue[1:]
		j := c.jobs[h]
		if j == nil || j.state != api.StateQueued {
			continue // satisfied or failed while queued (e.g. duplicate entry)
		}
		now := c.cfg.Clock()
		c.leaseSeq++
		j.state = api.StateLeased
		j.attempts++
		j.lease = fmt.Sprintf("l%d-%.8s", c.leaseSeq, h)
		j.worker = worker
		j.expiry = now.Add(c.cfg.LeaseTTL)
		c.leases[j.lease] = j
		c.touchWorkerLocked(worker)
		c.cfg.Collector.JobStarted(j.key, h)
		c.cfg.Collector.JobAttempt(j.key, j.attempts)
		c.record(JournalRecord{Kind: "lease", Key: j.key, Hash: h, Lease: j.lease, Worker: worker, Attempts: j.attempts})
		return &api.Lease{
			ID:      j.lease,
			Key:     j.key,
			Hash:    j.hash,
			Spec:    j.spec,
			Attempt: j.attempts,
			TTLMS:   c.cfg.LeaseTTL.Milliseconds(),
		}
	}
	return nil
}

// Heartbeat renews a live lease. An unknown or lapsed lease returns a
// CodeLeaseGone error: the worker must abandon the job (it may already be
// re-leased elsewhere).
func (c *Coordinator) Heartbeat(leaseID string) (time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.cfg.Clock())
	j := c.leases[leaseID]
	if j == nil {
		return 0, &api.Error{Code: api.CodeLeaseGone, Message: fmt.Sprintf("lease %s is unknown or lapsed", leaseID)}
	}
	j.expiry = c.cfg.Clock().Add(c.cfg.LeaseTTL)
	c.touchWorkerLocked(j.worker)
	return c.cfg.LeaseTTL, nil
}

// Complete resolves a leased job: on OutcomeOK the summary is stored into
// the shared corpus and the job is done; on a classified failure the
// runner's retry taxonomy applies (panic and timeout are retryable, plain
// failure is not). The returned state is the job's new state (done,
// queued, or failed). A late Complete for a lapsed lease returns
// CodeLeaseGone and changes nothing — the job already went back to the
// queue.
func (c *Coordinator) Complete(req api.CompleteRequest) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.cfg.Clock())
	j := c.leases[req.Lease]
	if j == nil {
		return "", &api.Error{Code: api.CodeLeaseGone, Message: fmt.Sprintf("lease %s is unknown or lapsed", req.Lease)}
	}
	delete(c.leases, req.Lease)
	j.lease = ""
	c.touchWorkerLocked(j.worker)

	if req.Outcome == api.OutcomeOK {
		if req.Summary == nil {
			// The lease is spent either way; requeue so the job is not lost.
			c.requeueOrFailLocked(j, "worker reported success without a summary", true)
			return j.state, &api.Error{Code: api.CodeBadRequest, Message: "outcome ok requires a summary"}
		}
		if err := c.cache.Store(j.hash, j.spec.Normalized(), req.Summary); err != nil {
			c.record(JournalRecord{Kind: "store_error", Key: j.key, Hash: j.hash, Error: err.Error()})
			if c.jerr == nil {
				c.jerr = err
			}
		}
		j.state = api.StateDone
		j.summary = &runner.Entry{Hash: j.hash, Spec: j.spec.Normalized(), Summary: req.Summary}
		c.cfg.Collector.JobDone(j.key, sweep.OutcomeDone, j.attempts, "")
		c.record(JournalRecord{Kind: "done", Key: j.key, Hash: j.hash, Worker: j.worker, Attempts: j.attempts})
		return j.state, nil
	}

	switch req.Outcome {
	case api.OutcomePanic:
		c.cfg.Collector.JobPanic(j.key, j.attempts)
	case api.OutcomeTimeout:
		c.cfg.Collector.JobTimeout(j.key, j.attempts)
	}
	retryable := req.Outcome == api.OutcomePanic || req.Outcome == api.OutcomeTimeout
	c.requeueOrFailLocked(j, req.Error, retryable)
	return j.state, nil
}

// requeueOrFailLocked applies the retry policy to a job whose attempt was
// lost or failed: re-queue while attempts remain and the loss is
// retryable, otherwise mark it failed. Callers hold c.mu.
func (c *Coordinator) requeueOrFailLocked(j *job, errText string, retryable bool) {
	if retryable && j.attempts <= c.cfg.Retries {
		j.state = api.StateQueued
		j.worker = ""
		c.queue = append(c.queue, j.hash)
		c.cfg.Collector.JobRetry(j.key, j.attempts)
		c.record(JournalRecord{Kind: "requeue", Key: j.key, Hash: j.hash, Attempts: j.attempts, Error: errText})
		c.notify()
		return
	}
	j.state = api.StateFailed
	j.errText = errText
	if errText == "" {
		j.errText = "job failed"
	}
	c.cfg.Collector.JobDone(j.key, sweep.OutcomeFailed, j.attempts, j.errText)
	c.record(JournalRecord{Kind: "failed", Key: j.key, Hash: j.hash, Attempts: j.attempts, Error: j.errText})
}

// expireLocked lapses every lease whose expiry has passed: the job goes
// back to the queue (or to failed, once its attempts are exhausted) and
// the lease ID becomes invalid, so a late heartbeat or completion from the
// lost worker is rejected instead of racing the re-run. Callers hold c.mu.
func (c *Coordinator) expireLocked(now time.Time) {
	for id, j := range c.leases {
		if now.Before(j.expiry) {
			continue
		}
		delete(c.leases, id)
		j.lease = ""
		c.cfg.Collector.JobExpired(j.key, j.attempts)
		c.record(JournalRecord{Kind: "expire", Key: j.key, Hash: j.hash, Lease: id, Worker: j.worker, Attempts: j.attempts})
		c.requeueOrFailLocked(j, fmt.Sprintf("lease lapsed on attempt %d (worker %s stopped heartbeating)", j.attempts, j.worker), true)
	}
}

// Tick lapses expired leases now. The server runs it periodically; tests
// drive it directly against a fake clock.
func (c *Coordinator) Tick() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.cfg.Clock())
}

// StartExpiry runs Tick every interval until ctx fires (interval <= 0
// defaults to a quarter of the lease TTL).
func (c *Coordinator) StartExpiry(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = c.cfg.LeaseTTL / 4
	}
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				c.Tick()
			}
		}
	}()
}

// Sweep reports the state of a submitted sweep, with per-job rows in
// submission order under that sweep's own keys.
func (c *Coordinator) Sweep(id string) (*api.SweepStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.cfg.Clock())
	st := c.sweeps[id]
	if st == nil {
		return nil, &api.Error{Code: api.CodeNotFound, Message: fmt.Sprintf("sweep %s is unknown", id)}
	}
	out := &api.SweepStatus{Sweep: id, Complete: true}
	for i, h := range st.hashes {
		j := c.jobs[h]
		row := api.JobStatus{Key: st.keys[i], Hash: h, State: j.state, Attempts: j.attempts, Worker: j.worker, Error: j.errText}
		switch j.state {
		case api.StateQueued:
			out.Queued++
			out.Complete = false
		case api.StateLeased:
			out.Leased++
			out.Complete = false
		case api.StateDone:
			out.Done++
		case api.StateCached:
			out.Cached++
		case api.StateFailed:
			out.Failed++
		}
		out.Jobs = append(out.Jobs, row)
	}
	return out, nil
}

// Result returns one run's summary by spec content hash. It serves
// in-memory results first and falls back to the corpus on disk, so results
// from earlier coordinator lifetimes (or written by out-of-band sweeps
// sharing the directory) remain addressable.
func (c *Coordinator) Result(hash string) (*api.ResultResponse, error) {
	c.mu.Lock()
	j := c.jobs[hash]
	c.mu.Unlock()
	if j != nil {
		switch j.state {
		case api.StateDone, api.StateCached:
			return &api.ResultResponse{Hash: hash, Spec: j.summary.Spec, Summary: j.summary.Summary}, nil
		case api.StateFailed:
			return nil, &api.Error{Code: api.CodeNotFound, Message: fmt.Sprintf("job %s failed: %s", hash, j.errText)}
		default:
			return nil, &api.Error{Code: api.CodeNotReady, Message: fmt.Sprintf("job %s is %s", hash, j.state)}
		}
	}
	if sum, ok := c.cache.Load(hash); ok {
		return &api.ResultResponse{Hash: hash, Summary: sum}, nil
	}
	return nil, &api.Error{Code: api.CodeNotFound, Message: fmt.Sprintf("no result for %s", hash)}
}

// RegisterWorker records (or refreshes) a worker's registration and
// capability advertisement. Registration is advisory: leasing never
// requires it, but registered workers appear with liveness on /progress.
func (c *Coordinator) RegisterWorker(req api.RegisterRequest) (*api.RegisterResponse, error) {
	if req.Name == "" {
		return nil, &api.Error{Code: api.CodeBadRequest, Message: "worker name is required"}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Clock().UnixMilli()
	w := c.workers[req.Name]
	if w == nil {
		w = &api.WorkerStatus{Name: req.Name, FirstSeenMS: now}
		c.workers[req.Name] = w
	}
	w.Version = req.Version
	w.MaxMemMB = req.MaxMemMB
	w.LastSeenMS = now
	return &api.RegisterResponse{Workers: len(c.workers)}, nil
}

// touchWorkerLocked refreshes a registered worker's last-seen time on
// protocol activity (lease, heartbeat, complete). Unregistered workers are
// not implicitly created: liveness is only meaningful against an explicit
// capability advertisement. Callers hold c.mu.
func (c *Coordinator) touchWorkerLocked(name string) {
	if w := c.workers[name]; w != nil {
		w.LastSeenMS = c.cfg.Clock().UnixMilli()
	}
}

// workerLiveness is the multiple of LeaseTTL within which a registered
// worker's last activity counts as live on /progress.
const workerLiveness = 3

// Workers reports the registered workers sorted by name, with liveness
// computed against the coordinator's clock.
func (c *Coordinator) Workers() []api.WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	cutoff := c.cfg.Clock().Add(-workerLiveness * c.cfg.LeaseTTL).UnixMilli()
	out := make([]api.WorkerStatus, 0, len(c.workers))
	for _, w := range c.workers {
		ws := *w
		ws.Live = ws.LastSeenMS >= cutoff
		out = append(out, ws)
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Name < out[k].Name })
	return out
}

// Stats is a point-in-time census of the coordinator's job table, exposed
// as farm_* gauges on /metrics and under "farm" on /progress.
type Stats struct {
	Jobs    int `json:"jobs"`
	Queued  int `json:"queued"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`
	Cached  int `json:"cached"`
	Failed  int `json:"failed"`
	Sweeps  int `json:"sweeps"`
	Workers int `json:"workers"`
}

// Snapshot returns the current Stats.
func (c *Coordinator) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{Jobs: len(c.jobs), Sweeps: len(c.sweeps), Workers: len(c.workers)}
	for _, j := range c.jobs {
		switch j.state {
		case api.StateQueued:
			s.Queued++
		case api.StateLeased:
			s.Leased++
		case api.StateDone:
			s.Done++
		case api.StateCached:
			s.Cached++
		case api.StateFailed:
			s.Failed++
		}
	}
	return s
}
