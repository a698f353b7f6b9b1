package runner

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Manifest terminal states, one per ManifestRecord.State.
const (
	StateDone     = "done"     // simulated to completion and cached
	StateCached   = "cached"   // served from the result cache
	StateFailed   = "failed"   // terminal non-retryable (or retries-exhausted) error
	StatePanic    = "panic"    // terminal failure was a recovered panic
	StateTimeout  = "timeout"  // terminal failure was a job-deadline expiry
	StateCanceled = "canceled" // skipped: the batch stopped before the job ran
)

// ManifestRecord is one JSONL line of a sweep manifest. The first record
// of every Run invocation is a Kind="sweep" header naming the sweep hash
// and job count; each subsequent Kind="job" record is a job's terminal
// state, appended the moment the job finishes.
type ManifestRecord struct {
	Kind string `json:"kind"` // "sweep" or "job"

	// Sweep-header fields.
	Sweep string `json:"sweep,omitempty"`
	Jobs  int    `json:"jobs,omitempty"`

	// Job fields.
	Key      string `json:"key,omitempty"`
	Hash     string `json:"hash,omitempty"`
	State    string `json:"state,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Error    string `json:"error,omitempty"`
}

// ManifestPath returns the manifest file under dir for the sweep whose
// runspec.SweepID is sweepID.
func ManifestPath(dir, sweepID string) string {
	return filepath.Join(dir, "sweep-"+sweepID+".manifest")
}

// TelemetryPath returns the job-lifecycle telemetry journal under dir for
// the sweep whose runspec.SweepID is sweepID, written beside the manifest
// when Options.Telemetry and a cache are both configured (append-only
// JSONL; see sweep.Replay).
func TelemetryPath(dir, sweepID string) string {
	return filepath.Join(dir, "sweep-"+sweepID+".telemetry.jsonl")
}

// outcomeState classifies a terminal outcome into the manifest state
// vocabulary (shared verbatim with the telemetry event model's Outcome*
// constants).
func outcomeState(out outcome) string {
	var pe *PanicError
	switch {
	case out.err == nil && out.cached:
		return StateCached
	case out.err == nil:
		return StateDone
	case canceledOutcome(out.err):
		return StateCanceled
	case errors.Is(out.err, ErrJobTimeout):
		return StateTimeout
	case errors.As(out.err, &pe):
		return StatePanic
	default:
		return StateFailed
	}
}

// Manifest is an append-only JSONL record of a sweep's progress, written
// beside the result cache. Appends are single O_APPEND writes of whole
// lines, so a crash can at worst tear the final line — which ReadManifest
// tolerates — and every line before it survives. Close syncs the file, the
// flush half of the SIGINT drain path.
type Manifest struct {
	path string
	f    *os.File
}

// OpenManifest opens (creating dir and file as needed) the manifest for
// the sweep sweepID of n jobs and appends the sweep header. Re-running a
// sweep appends a fresh header plus its records to the same file,
// preserving history.
func OpenManifest(dir, sweepID string, n int) (*Manifest, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := ManifestPath(dir, sweepID)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	m := &Manifest{path: path, f: f}
	if err := m.append(ManifestRecord{Kind: "sweep", Sweep: sweepID, Jobs: n}); err != nil {
		f.Close()
		return nil, err
	}
	return m, nil
}

// Path returns the manifest file path.
func (m *Manifest) Path() string { return m.path }

// AppendJob records a job's terminal outcome.
func (m *Manifest) AppendJob(j Job, out outcome) error {
	hash, err := j.Spec.Hash()
	if err != nil {
		hash = ""
	}
	rec := ManifestRecord{
		Kind:     "job",
		Key:      j.Key,
		Hash:     hash,
		State:    outcomeState(out),
		Attempts: out.attempts,
	}
	if out.err != nil {
		rec.Error = out.err.Error()
	}
	return m.append(rec)
}

// append writes one record as a single whole-line write.
func (m *Manifest) append(rec ManifestRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	_, err = m.f.Write(append(line, '\n'))
	return err
}

// Close flushes the manifest to stable storage and closes it.
func (m *Manifest) Close() error {
	serr := m.f.Sync()
	cerr := m.f.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// ReadManifest loads every parsable record from a manifest file. Lines
// that fail to parse (at worst the torn final line of a crashed writer)
// are skipped, not fatal: the manifest is a crash-safe journal, and its
// readers must accept the state a crash leaves behind.
func ReadManifest(path string) ([]ManifestRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []ManifestRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024) // panic stacks make long lines
	for sc.Scan() {
		var rec ManifestRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return recs, fmt.Errorf("runner: manifest %s: %w", path, err)
	}
	return recs, nil
}
