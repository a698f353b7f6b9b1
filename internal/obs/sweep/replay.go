package sweep

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Replay folds a stream of telemetry JSONL lines back into the Progress the
// live collector reported: every parsed event goes through the same apply
// step as a live one, so replaying the journal of a finished sweep gives
// exactly the counts of the Snapshot taken at its end. Time-based fields
// (elapsed, rate, running times of jobs with no done event) are measured up
// to the last event's timestamp. Replay is crash-tolerant: unparsable lines
// (at worst the torn final line of a crashed writer) are skipped, not
// fatal; Progress.Events counts only parsed events.
func Replay(r io.Reader) (Progress, error) {
	c := New()
	var last time.Time
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024) // panic stacks make long lines
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			continue
		}
		last = time.UnixMilli(ev.TMS)
		c.apply(&ev, last)
	}
	p := c.progress(last)
	if err := sc.Err(); err != nil {
		return p, fmt.Errorf("sweep: telemetry replay: %w", err)
	}
	return p, nil
}

// ReplayFile replays the telemetry journal at path.
func ReplayFile(path string) (Progress, error) {
	f, err := os.Open(path)
	if err != nil {
		return Progress{}, err
	}
	defer f.Close()
	return Replay(f)
}
