package runspec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Named pairs a display key with a spec: one job of a batch. Key is the
// caller-facing name (e.g. "itesp/mcf") used in result maps and progress
// output; the content hash of Spec, not Key, addresses the run everywhere
// results are stored.
type Named struct {
	Key  string `json:"key"`
	Spec Spec   `json:"spec"`
}

// batchFile is the on-disk batch encoding: a single object with a "jobs"
// list, so the format can grow sweep-level fields later without breaking
// old files.
type batchFile struct {
	Jobs []Named `json:"jobs"`
}

// ReadBatch decodes a batch of named specs from r (the format WriteBatch
// produces) and validates it: at least one job, non-empty unique keys, and
// every spec resolvable (Validate). It is the parse step for everything
// that accepts a job list from outside the process — the farm submission
// API and the simfarm client both speak this format.
func ReadBatch(r io.Reader) ([]Named, error) {
	var f batchFile
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("runspec: batch: %w", err)
	}
	if err := ValidateBatch(f.Jobs); err != nil {
		return nil, err
	}
	return f.Jobs, nil
}

// WriteBatch encodes jobs in the ReadBatch format.
func WriteBatch(w io.Writer, jobs []Named) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(batchFile{Jobs: jobs}); err != nil {
		return fmt.Errorf("runspec: batch: %w", err)
	}
	return nil
}

// ValidateBatch checks a job list as a unit: non-empty, every key present
// and unique, every spec valid. Errors name the offending job by index and
// key so a rejected submission is diagnosable from the message alone.
func ValidateBatch(jobs []Named) error {
	if len(jobs) == 0 {
		return fmt.Errorf("runspec: batch: no jobs")
	}
	seen := make(map[string]int, len(jobs))
	for i, j := range jobs {
		if j.Key == "" {
			return fmt.Errorf("runspec: batch: job %d has no key", i)
		}
		if prev, dup := seen[j.Key]; dup {
			return fmt.Errorf("runspec: batch: duplicate key %q (jobs %d and %d)", j.Key, prev, i)
		}
		seen[j.Key] = i
		if err := j.Spec.Validate(); err != nil {
			return fmt.Errorf("runspec: batch: job %d (%s): %w", i, j.Key, err)
		}
	}
	return nil
}

// SweepID names a job set by content: the hex SHA-256 over the sorted spec
// hashes. It is order-independent, so a resumed or re-sharded sweep, and
// the same sweep run in-process or submitted to a farm, share one
// identity. A job whose spec cannot hash is an error: no placeholder may
// stand in for it, or two different sweeps would share one ID.
func SweepID(jobs []Named) (string, error) {
	hashes := make([]string, 0, len(jobs))
	for _, j := range jobs {
		h, err := j.Spec.Hash()
		if err != nil {
			return "", fmt.Errorf("runspec: job %s: %w", j.Key, err)
		}
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	sum := sha256.New()
	for _, h := range hashes {
		sum.Write([]byte(h))
		sum.Write([]byte{'\n'})
	}
	return hex.EncodeToString(sum.Sum(nil)), nil
}
