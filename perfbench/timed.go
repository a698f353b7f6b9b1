package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs/sweep"
	"repro/internal/sim"
)

// rep is one measured repetition of a workload.
type rep struct {
	wall, cpu, setup time.Duration
	allocBytes       uint64
	runs             map[string]time.Duration // host time of each simulation, by key
	simOps           uint64                   // simulated memory operations
	attempted        int
	failed           int
	digest           string
	errs             []string
}

// measure runs body as one repetition, charging it the wall time, the
// process CPU time and the heap bytes allocated in between. A GC before
// the clock starts keeps one repetition's garbage out of the next.
func measure(body func(r *rep)) rep {
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTime()
	start := time.Now()
	var r rep
	body(&r)
	r.wall = time.Since(start)
	r.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&ms1)
	r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	return r
}

// cpuTime is the process's user+system CPU time so far. Getrusage on
// RUSAGE_SELF with a valid buffer cannot fail.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSBytes is the process's peak resident set size.
func maxRSSBytes() uint64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return uint64(ru.Maxrss) * 1024 // Linux reports KiB
}

// serialRep runs every case once through sim.RunContext, as itespsim does.
// Set-up ends when the first simulation pulls its first trace record.
func serialRep(ctx context.Context, cases []runCase) rep {
	return measure(func(r *rep) {
		start := time.Now()
		var digests []string
		for i, rc := range cases {
			var pulled time.Time
			cfg := rc.cfg
			if r.runs == nil {
				r.runs = map[string]time.Duration{}
			}
			srcs, err := rc.sources()
			r.attempted++
			if err != nil {
				r.failed++
				r.errs = append(r.errs, fmt.Sprintf("%s: sources: %v", rc.key, err))
				continue
			}
			cfg.Sources = wrapFirstPull(srcs, &pulled)
			t0 := time.Now()
			res, err := sim.RunContext(ctx, cfg)
			r.runs[rc.key] = time.Since(t0)
			if i == 0 && !pulled.IsZero() {
				r.setup = pulled.Sub(start)
			}
			if err == nil {
				err = checkRun(res)
			}
			if err != nil {
				r.failed++
				r.errs = append(r.errs, fmt.Sprintf("%s: %v", rc.key, err))
				continue
			}
			r.simOps += res.Engine.Stats.DataOps()
			digests = append(digests, rc.key, digestOf(res))
		}
		r.digest = hashOf(digests...)
	})
}

// fig8Rep runs the reduced Fig 8 sweep once through experiments.Fig8. A
// sweep.Collector timestamps each job's lifecycle: set-up ends at the first
// simulation attempt (the runner's hand-off to sim.RunContext), and a
// run's host time is its attempt-to-done span.
func fig8Rep(ctx context.Context, seed int64) (rep, *jobSpans, map[string]*sim.Summary) {
	var spans *jobSpans
	var raw map[string]*sim.Summary
	r := measure(func(r *rep) {
		col := sweep.New()
		sink := &eventSink{}
		col.AttachSink(sink)
		start := time.Now()
		res, err := experiments.Fig8(fig8Options(ctx, seed, col))
		end := time.Now()
		spans = sink.spans(start, end)
		r.attempted = len(fig8Benchmarks) * (1 + len(experiments.Fig8Schemes))
		if err == nil {
			err = checkFig8(res)
		}
		if err != nil {
			r.failed = r.attempted
			r.errs = append(r.errs, err.Error())
			return
		}
		raw = res.Raw
		r.setup = spans.firstAttempt.Sub(start)
		r.runs = spans.runs
		r.failed = spans.failedJobs
		for _, s := range res.Raw {
			r.simOps += s.DataOps
		}
		b, err := json.Marshal(res.Raw)
		if err != nil {
			panic(err) // plain numbers and strings only
		}
		r.digest = hashOf(string(b))
	})
	return r, spans, raw
}

// stampedEvent is one sweep lifecycle event with a nanosecond host stamp
// (the collector's own stamp is whole milliseconds).
type stampedEvent struct {
	at   time.Time
	line []byte
}

// eventSink receives the collector's JSONL journal; each Write is one
// event, delivered synchronously under the collector's lock.
type eventSink struct {
	mu     sync.Mutex
	events []stampedEvent
}

func (s *eventSink) Write(p []byte) (int, error) {
	at := time.Now()
	s.mu.Lock()
	s.events = append(s.events, stampedEvent{at: at, line: bytes.Clone(p)})
	s.mu.Unlock()
	return len(p), nil
}

// jobSpans is the runner's view of one sweep, folded from its events.
type jobSpans struct {
	wall         time.Duration
	firstAttempt time.Time
	runs         map[string]time.Duration // attempt → done, per simulated job
	queueWait    []time.Duration          // queued → started, per job
	busy         time.Duration            // Σ started → done
	retries      int
	failedJobs   int
}

func (s *eventSink) spans(start, end time.Time) *jobSpans {
	s.mu.Lock()
	defer s.mu.Unlock()
	js := &jobSpans{wall: end.Sub(start), runs: map[string]time.Duration{}}
	type times struct{ queued, started, attempt time.Time }
	per := map[string]*times{}
	get := func(k string) *times {
		if per[k] == nil {
			per[k] = &times{}
		}
		return per[k]
	}
	for _, se := range s.events {
		var ev sweep.Event
		if err := json.Unmarshal(se.line, &ev); err != nil {
			// The collector writes each event with json.Marshal; a line
			// that does not decode is not an event.
			continue
		}
		t := get(ev.Key)
		switch ev.Type {
		case sweep.EventQueued:
			t.queued = se.at
		case sweep.EventStarted:
			t.started = se.at
			js.queueWait = append(js.queueWait, se.at.Sub(t.queued))
		case sweep.EventAttempt:
			t.attempt = se.at
			if js.firstAttempt.IsZero() || se.at.Before(js.firstAttempt) {
				js.firstAttempt = se.at
			}
		case sweep.EventRetry:
			js.retries++
		case sweep.EventDone:
			js.busy += se.at.Sub(t.started)
			if ev.Outcome != sweep.OutcomeDone {
				js.failedJobs++
				continue
			}
			js.runs[ev.Key] = se.at.Sub(t.attempt)
		}
	}
	return js
}

// timedResult folds the repetitions of one timed run into the end-to-end
// metrics.
type timedResult struct {
	reps      []rep
	kernel    []kernelTime // speedKernel before the first repetition and after each
	attempted int
	failed    int
	errs      []string
}

// timedRun repeats the workload until the time budget is spent (at least
// once). Every repetition's digest of simulated statistics must equal the
// first one's; a repetition that differs counts all of its runs failed.
func timedRun(ctx context.Context, w workloadDef, seed int64, budget time.Duration) (*timedResult, error) {
	var cases []runCase
	if !w.sweep {
		var err error
		if cases, err = serialCases(w, seed); err != nil {
			return nil, err
		}
	}
	tr := &timedResult{}
	start := time.Now()
	for len(tr.reps) == 0 || time.Since(start) < budget {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(tr.kernel) == 0 {
			tr.kernel = append(tr.kernel, speedKernel())
		}
		var r rep
		if w.sweep {
			r, _, _ = fig8Rep(ctx, seed)
		} else {
			r = serialRep(ctx, cases)
		}
		if len(tr.reps) > 0 && r.failed == 0 && r.digest != tr.reps[0].digest {
			r.failed = r.attempted
			r.errs = append(r.errs, fmt.Sprintf("repetition %d: digest %s differs from the first repetition's %s", len(tr.reps), r.digest, tr.reps[0].digest))
		}
		tr.attempted += r.attempted
		tr.failed += r.failed
		tr.errs = append(tr.errs, r.errs...)
		tr.reps = append(tr.reps, r)
		tr.kernel = append(tr.kernel, speedKernel())
	}
	return tr, nil
}

// metrics returns the end-to-end metrics of a timed run, plus the sample
// count and percentile behind run_s.tail, and the median host-speed scale
// applied to its host times (see calibrate.go).
//
// Each repetition's host times are scaled to the reference host speed, and
// every metric is a median over repetitions. A simulation's host time is
// likewise its median over the repetitions; run_s.p50 and run_s.tail are
// taken over the simulations.
func (tr *timedResult) metrics() (map[string]metric, tailInfo, float64) {
	var wall, runsPerS, mops, cpu, setup, alloc, scales []float64
	perRun := map[string][]float64{}
	for i, r := range tr.reps {
		scale, cpuScale := repScale(tr.kernel[i], tr.kernel[i+1])
		scales = append(scales, scale)
		ws := r.wall.Seconds() * scale
		wall = append(wall, ws)
		runsPerS = append(runsPerS, float64(len(r.runs))/ws)
		mops = append(mops, float64(r.simOps)/1e6/ws)
		cpu = append(cpu, r.cpu.Seconds()*cpuScale)
		setup = append(setup, r.setup.Seconds()*scale)
		alloc = append(alloc, float64(r.allocBytes)/1e6)
		for k, d := range r.runs {
			perRun[k] = append(perRun[k], d.Seconds()*scale)
		}
	}
	var runs []float64
	for _, ds := range perRun {
		runs = append(runs, median(ds))
	}
	tail := tailOf(runs)
	return map[string]metric{
		"wall_s":         {median(wall), "s"},
		"runs_per_s":     {median(runsPerS), "1/s"},
		"sim_mops_per_s": {median(mops), "Mops/s"},
		"run_s.p50":      {median(runs), "s"},
		"run_s.tail":     {tail.value, "s"},
		"cpu_s":          {median(cpu), "s"},
		"setup_s":        {median(setup), "s"},
		"alloc_mb":       {median(alloc), "MB"},
		"max_rss_mb":     {float64(maxRSSBytes()) / 1e6, "MB"},
	}, tail, median(scales)
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailInfo is a tail percentile with its base.
type tailInfo struct {
	value      float64
	percentile int // nearest-rank percentile; 100 means the maximum
	samples    int
}

// tailOf returns the highest whole percentile (nearest rank) with at least
// ten samples above it. With ten or fewer samples no percentile qualifies
// and the maximum is reported as percentile 100.
func tailOf(xs []float64) tailInfo {
	n := len(xs)
	if n == 0 {
		return tailInfo{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n <= 10 {
		return tailInfo{value: s[n-1], percentile: 100, samples: n}
	}
	p := 100 * (n - 10) / n
	idx := (p*n+99)/100 - 1 // nearest rank: ceil(p·n/100) − 1
	if idx < 0 {
		idx = 0
	}
	return tailInfo{value: s[idx], percentile: p, samples: n}
}
