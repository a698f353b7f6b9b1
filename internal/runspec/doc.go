// Package runspec defines the declarative, serializable description of one
// simulation run. A Spec round-trips to and from sim.Config (minus the
// non-addressable in-process hooks: explicit trace sources and observers),
// and carries a canonical content hash over every behavior-affecting knob.
// That hash names the run: the runner's result cache stores summaries under
// it, sweeps schedule by it, and resuming a sweep means re-running only the
// hashes with no cache entry.
//
// The hash is deliberately narrower than the spec: Normalized folds the
// simulator's defaulting rules, so an unset knob and an explicitly-set
// default are the same run. A spec holds no execution knobs (parallelism
// lives in the runner and the farm), so hashes — and therefore cache
// entries, sweep journals, and farm result corpora — are invariant across
// worker counts and host machines: any two machines that agree on a
// spec's canonical JSON agree on its identity.
//
// Batches (batch.go) extend the same discipline to job lists: a Named
// pairs a display key with a spec, ReadBatch/WriteBatch define the on-disk
// and on-wire batch format, and ValidateBatch rejects duplicate keys and
// unresolvable specs before any simulation is scheduled. SweepID names a
// whole job set by content; the runner's sweep journals and the farm's
// sweeps both use it. The farm submission API (internal/farm/api) and the
// simfarm client both speak this format.
package runspec
