// Package farm turns the run orchestration stack into a networked service:
// a coordinator (cmd/simfarmd) that accepts sweep submissions over
// HTTP/JSON and maintains a durable pull queue, and stateless workers
// (cmd/simfarm-worker) that long-poll for leases, execute jobs through the
// ordinary runner + local .runcache, and push summaries back. The wire
// protocol lives in the api subpackage — one definition shared by
// coordinator, worker, and clients.
//
// The design reuses, rather than re-invents, the existing pieces:
//
//   - Identity is the runspec content hash everywhere. A sweep's ID is
//     runspec.SweepID, a hash over its jobs' spec hashes — the same ID the
//     runner names its sweep journals by — so submission is idempotent and
//     a farm sweep and the identical in-process sweep name the same work.
//     Specs carry no execution knobs, so the corpus is shareable across
//     machines with different worker/core counts.
//   - The shared result corpus is a runner.Cache: the same on-disk layout
//     as a local .runcache, fed by every worker's pushed results. A
//     submitted job whose hash is already in the corpus is satisfied
//     without dispatch — cache hits short-circuit the queue entirely.
//   - Reliability is lease-based. A worker holds each job under a TTL'd
//     lease and renews it from inside the runner's heartbeat hook; a
//     worker that dies simply stops heartbeating, its lease lapses, and
//     the job returns to the queue under the runner's retry accounting
//     (attempts are charged at lease time; panics and timeouts pushed back
//     by live workers follow the same taxonomy).
//   - Observability is forwarded spans. The coordinator drives an
//     obs/sweep Collector on behalf of its remote fleet — lease grants
//     become started/attempt spans, lapses become expired spans — so
//     /progress, /metrics, and /events aggregate the whole farm exactly
//     like a local sweep. Every state transition is also journaled to an
//     append-only farm-journal.jsonl beside the corpus (the crash-safe
//     whole-line-append idiom of the sweep manifest).
//
// See DESIGN.md's "Sweep farm" chapter for the endpoint, lease, and
// state-machine reference, and examples/farm for a runnable walkthrough.
package farm
