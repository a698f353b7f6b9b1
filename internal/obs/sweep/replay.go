package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Totals are the sweep-level counts reconstructed from a telemetry
// journal. The fields mirror runner.Stats one-for-one: replaying the
// telemetry.jsonl of a completed sweep yields exactly the Stats the runner
// returned, which is the integrity check that makes the journal a trustable
// post-hoc record of where time went.
type Totals struct {
	Jobs         int `json:"jobs"`
	Simulated    int `json:"simulated"`
	CacheHits    int `json:"cache_hits"`
	Failures     int `json:"failures"`
	Canceled     int `json:"canceled"`
	Panics       int `json:"panics"`
	TimedOut     int `json:"timed_out"`
	Retried      int `json:"retried"`
	CacheCorrupt int `json:"cache_corrupt"`
}

// Replay reconstructs sweep totals from a stream of telemetry JSONL lines.
// It is crash-tolerant: unparsable lines (at worst the torn final line of
// a crashed writer) are skipped, not fatal. The returned event count includes only parsed events.
func Replay(r io.Reader) (Totals, int, error) {
	var t Totals
	n := 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024) // panic stacks make long lines
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue
		}
		n++
		switch ev.Type {
		case EventSweepStart:
			t.Jobs += ev.Jobs
		case EventPanic:
			t.Panics++
		case EventTimeout:
			t.TimedOut++
		case EventRetry:
			t.Retried++
		case EventCacheCorrupt:
			t.CacheCorrupt++
		case EventDone:
			switch ev.Outcome {
			case OutcomeDone:
				t.Simulated++
			case OutcomeCached:
				t.CacheHits++
			case OutcomeCanceled:
				t.Canceled++
			case OutcomeFailed, OutcomePanic, OutcomeTimeout:
				t.Failures++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return t, n, fmt.Errorf("sweep: telemetry replay: %w", err)
	}
	return t, n, nil
}

// ReplayFile replays the telemetry journal at path.
func ReplayFile(path string) (Totals, int, error) {
	f, err := os.Open(path)
	if err != nil {
		return Totals{}, 0, err
	}
	defer f.Close()
	return Replay(f)
}
