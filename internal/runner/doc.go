// Package runner schedules batches of declarative run specs over a bounded
// worker pool, with a content-addressed result cache, fault-tolerant
// execution, and aggregated error reporting. The pool runs independent
// simulations side by side; that is the simulator's one parallelism axis,
// and each simulation itself is single-threaded. Sweeps built on it are
// resumable for free: every completed job leaves a cache entry under its
// spec hash, so re-invoking an interrupted sweep re-simulates only the
// missing hashes. An Options.Telemetry collector (sweep.Collector) is the
// only count of what a batch did; with a cache as well, the sweep's one
// journal — an append-only JSONL telemetry file beside the cache, named by
// the job set's runspec.SweepID — records each job's lifecycle and
// terminal state for post-mortems, and sweep.Replay folds it back to the
// same counts the live collector reported.
//
// Failure handling follows one taxonomy end to end: recovered panics,
// per-job deadline expiries, spec errors and watchdog trips fail the job,
// and batch cancellation drains — queued jobs are skipped while in-flight
// simulations finish and land in the cache. Each job is simulated at most
// once: the simulator is deterministic, so a re-run would fail the same
// way. The same taxonomy is what the sweep farm (internal/farm) speaks over
// the wire, so a job failing on a remote worker is accounted exactly like
// one failing on a local goroutine; the farm's workers execute leased jobs
// through this package and keep their leases alive with the
// Options.OnHeartbeat hook, and the farm coordinator's lease-level retry
// (which covers a lost worker) is the system's one retry path.
//
// Concurrency contract: Run owns the outcome slice until it returns;
// workers write disjoint outcome entries and serialize every shared side
// effect (done counting, OnJobDone, telemetry done events) under one
// mutex. Observer/AfterSim hooks run on worker goroutines, one job at a
// time per worker, and must not share mutable state across jobs unless
// they synchronize it themselves. The contract is enforced by
// `go test -race ./internal/runner/...` in scripts/check.sh.
package runner
