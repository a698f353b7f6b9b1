package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/sim"
)

// layerTotals accumulates the traced run's per-layer measurements over
// every simulation of every pass. Host times are estimated seconds.
type layerTotals struct {
	runs int

	iters, sampled                               uint64
	cycleCalls, accessCalls, rejected, nextCalls uint64
	tickCalls, skipCalls                         uint64
	dramCycles, skippedDRAMCycles                uint64

	cpuSelf, access, next, tick, skip, loopSelf, setup float64
	loop, estimated                                    float64

	// Simulated statistics.
	stallCycles, coreCycles           uint64
	dataOps, metaAccesses, parityRMW  uint64
	metaHits, metaLookups             uint64
	rowHits, rowMisses                uint64
	dramReads, dramWrites             uint64
	readLatSum                        float64
	readLatN                          uint64
	injected, scrubReads, corrections uint64
	due                               uint64

	tracedWall, untracedWall float64

	// Runner spans (fig8-sweep only).
	sweeps    int
	sweepWall float64
	busy      float64
	queueWait []float64
	retries   int
}

// addRun folds one step-driver run into the totals.
func (t *layerTotals) addRun(lt *layerTimes, res *sim.Result, cores []*cpu.Core) {
	t.runs++
	t.iters += lt.iters
	t.cycleCalls += lt.cycleCalls
	t.accessCalls += lt.accessCalls
	t.rejected += lt.rejected
	t.nextCalls += lt.nextCalls
	t.tickCalls += lt.tickCalls
	t.skipCalls += lt.skipCalls
	t.dramCycles += res.Memory.Now()
	t.skippedDRAMCycles += lt.skippedDRAMCycles

	e := lt.estimate()
	t.cpuSelf += e.cpuSelf
	t.access += e.access
	t.next += e.next
	t.tick += e.tick
	t.skip += e.skip
	t.loopSelf += e.glue
	t.loop += lt.loop.Seconds()
	t.estimated += lt.loop.Seconds() / e.scale
	t.setup += lt.setup.Seconds()
	t.sampled += lt.blockSamples + lt.callSamples

	for _, c := range cores {
		t.stallCycles += c.StallCycles.Value()
		t.coreCycles += c.FinishCycle()
	}
	st := &res.Engine.Stats
	t.dataOps += st.DataOps()
	for k := range mem.NumKinds {
		if mem.Kind(k) != mem.KindData {
			t.metaAccesses += st.MetaReads[k].Value() + st.MetaWrites[k].Value()
		}
	}
	t.parityRMW += st.ParityRMW.Value()
	if mc := res.Engine.MetaCache(); mc != nil {
		t.metaHits += mc.Stats.Hits.Value()
		t.metaLookups += mc.Stats.Hits.Value() + mc.Stats.Misses.Value()
	}
	for c := range res.Memory.Config().Geom.Channels {
		cs := res.Memory.ChannelStats(c)
		t.rowHits += cs.RowHits.Value()
		t.rowMisses += cs.RowMisses.Value()
		t.dramReads += cs.Reads.Value()
		t.dramWrites += cs.Writes.Value()
		t.readLatSum += cs.ReadLat.Sum()
		t.readLatN += cs.ReadLat.Count()
	}
	if f := res.Faults; f != nil {
		t.injected += f.Injected
		t.scrubReads += f.ScrubReads
		t.corrections += f.CorrectionReads
		t.due += f.DUE
	}
}

// tracedResult is the outcome of a traced run.
type tracedResult struct {
	passes    int
	totals    layerTotals
	attempted int
	failed    int
	errs      []string
}

// tracedRun measures the per-layer split. Each pass replays every
// simulation of the workload twice: once through sim.RunContext, untraced
// and timed as a whole, and once through the step driver with per-layer
// counting and sampled timing. The two must agree exactly. On fig8-sweep a
// pass first runs the sweep itself with a sweep.Collector for the runner's
// spans, and each replay must also equal the sweep's own summary. Passes
// repeat until the budget is spent (at least one); every pass's digest must
// equal the first's.
func tracedRun(ctx context.Context, w workloadDef, seed int64, budget time.Duration) (*tracedResult, error) {
	var cases []runCase
	var err error
	if w.sweep {
		cases, err = fig8Cases(seed)
	} else {
		cases, err = serialCases(w, seed)
	}
	if err != nil {
		return nil, err
	}
	tr := &tracedResult{}
	var firstDigest string
	start := time.Now()
	for tr.passes == 0 || time.Since(start) < budget {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var sweepRaw map[string]*sim.Summary
		if w.sweep {
			r, spans, raw := fig8Rep(ctx, seed)
			tr.attempted += r.attempted
			tr.failed += r.failed
			tr.errs = append(tr.errs, r.errs...)
			sweepRaw = raw
			t := &tr.totals
			t.sweeps++
			t.sweepWall += spans.wall.Seconds()
			t.busy += spans.busy.Seconds()
			t.retries += spans.retries
			for _, q := range spans.queueWait {
				t.queueWait = append(t.queueWait, q.Seconds())
			}
		}
		var digests []string
		passFailed := false
		for _, rc := range cases {
			tr.attempted++
			d, err := tracedCase(ctx, rc, &tr.totals, sweepRaw)
			if err != nil {
				tr.failed++
				passFailed = true
				tr.errs = append(tr.errs, fmt.Sprintf("%s: %v", rc.key, err))
				continue
			}
			digests = append(digests, rc.key, d)
		}
		if pd := hashOf(digests...); !passFailed {
			if firstDigest == "" {
				firstDigest = pd
			} else if pd != firstDigest {
				tr.failed += len(cases)
				tr.errs = append(tr.errs, fmt.Sprintf("pass %d: digest %s differs from the first pass's %s", tr.passes, pd, firstDigest))
			}
		}
		tr.passes++
	}
	return tr, nil
}

// tracedCase runs one case untraced and traced, checks that they agree
// (and, on the sweep, that they equal the sweep's summary), and folds the
// traced run's layers into totals.
func tracedCase(ctx context.Context, rc runCase, totals *layerTotals, sweepRaw map[string]*sim.Summary) (string, error) {
	fresh := func() (sim.Config, error) {
		cfg := rc.cfg
		if rc.sources != nil {
			srcs, err := rc.sources()
			if err != nil {
				return cfg, err
			}
			cfg.Sources = srcs
		}
		return cfg, nil
	}
	cfg, err := fresh()
	if err != nil {
		return "", err
	}
	t0 := time.Now()
	ref, err := sim.RunContext(ctx, cfg)
	untraced := time.Since(t0)
	if err != nil {
		return "", fmt.Errorf("sim.RunContext: %w", err)
	}
	if cfg, err = fresh(); err != nil {
		return "", err
	}
	var lt layerTimes
	t0 = time.Now()
	res, cores, err := stepDrive(ctx, cfg, &lt)
	traced := time.Since(t0)
	if err != nil {
		return "", err
	}
	want, got := digestOf(ref), digestOf(res)
	if got != want {
		return "", fmt.Errorf("step driver differs from sim.RunContext:\n  driver %s\n  sim    %s", got, want)
	}
	if sweepRaw != nil {
		sum, ok := sweepRaw[rc.key]
		if !ok {
			return "", fmt.Errorf("no summary for this job in the sweep")
		}
		// Summaries hold only numbers and strings; Marshal cannot fail.
		a, _ := json.Marshal(sum)
		b, _ := json.Marshal(res.Summarize())
		if string(a) != string(b) {
			return "", fmt.Errorf("step driver differs from the sweep's summary:\n  driver %s\n  sweep  %s", b, a)
		}
	}
	if err := checkRun(res); err != nil {
		return "", err
	}
	totals.untracedWall += untraced.Seconds()
	totals.tracedWall += traced.Seconds()
	totals.addRun(&lt, res, cores)
	return got, nil
}

// frac is a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetric is one per-layer metric with the base its ratio rests on.
type layerMetric struct {
	name  string
	value float64
	unit  string
	base  string // human-readable base of a ratio; "" for plain values
	na    bool   // the layer is not reached on this workload
}

// metrics returns the per-layer metrics, each per pass (one repetition of
// the workload). Layers a workload does not reach report 0 and are marked
// not applicable in the human-readable table.
func (tr *tracedResult) metrics() []layerMetric {
	t := &tr.totals
	p := float64(max(tr.passes, 1))
	per := func(x float64) float64 { return x / p }
	perN := func(x uint64) float64 { return float64(x) / p }
	procs := runtime.GOMAXPROCS(0)

	var out []layerMetric
	add := func(name string, v float64, unit, base string, na bool) {
		out = append(out, layerMetric{name, v, unit, base, na})
	}

	noRunner := t.sweeps == 0
	qw := tailOf(t.queueWait)
	parallelism := frac(t.busy, t.sweepWall)
	idle := 0.0
	if !noRunner {
		idle = 1 - parallelism/float64(procs)
	}
	add("runner.queue_wait_s.p50", median(t.queueWait), "s", fmt.Sprintf("%d jobs", len(t.queueWait)), noRunner)
	add("runner.queue_wait_s.tail", qw.value, "s", fmt.Sprintf("p%d of %d jobs", qw.percentile, qw.samples), noRunner)
	add("runner.busy_s", per(t.busy), "s", fmt.Sprintf("%d sweeps", t.sweeps), noRunner)
	add("runner.parallelism", parallelism, "ratio", fmt.Sprintf("busy %.3fs / wall %.3fs", t.busy, t.sweepWall), noRunner)
	add("runner.idle_frac", idle, "ratio", fmt.Sprintf("GOMAXPROCS %d", procs), noRunner)
	add("runner.retries", perN(uint64(t.retries)), "count", "", noRunner)

	add("sim.dram_cycles", perN(t.dramCycles), "count", "", false)
	add("sim.skip_frac", frac(float64(t.skippedDRAMCycles), float64(t.dramCycles)), "ratio",
		fmt.Sprintf("%d skipped / %d DRAM cycles", t.skippedDRAMCycles, t.dramCycles), false)
	add("sim.loop_self_s", per(t.loopSelf), "s",
		fmt.Sprintf("share %.3f of loop %.3fs; sampled parts summed to %.3fs and were scaled to the loop",
			frac(t.loopSelf, t.loop), t.loop, t.estimated), false)
	add("sim.setup_s", per(t.setup), "s", fmt.Sprintf("%d runs", t.runs), false)

	add("cpu.cycle_calls", perN(t.cycleCalls), "count", "", false)
	add("cpu.self_s", per(t.cpuSelf), "s", fmt.Sprintf("share %.3f of loop", frac(t.cpuSelf, t.loop)), false)
	add("cpu.ns_per_call", 1e9*frac(t.cpuSelf, float64(t.cycleCalls)), "ns", fmt.Sprintf("%d calls", t.cycleCalls), false)
	add("cpu.stall_frac", frac(float64(t.stallCycles), float64(t.coreCycles)), "ratio",
		fmt.Sprintf("%d stall / %d core cycles", t.stallCycles, t.coreCycles), false)

	add("core.access_calls", perN(t.accessCalls), "count", "", false)
	add("core.access_s", per(t.access), "s", fmt.Sprintf("share %.3f of loop", frac(t.access, t.loop)), false)
	add("core.ns_per_access", 1e9*frac(t.access, float64(t.accessCalls)), "ns", fmt.Sprintf("%d calls", t.accessCalls), false)
	add("core.rejected_frac", frac(float64(t.rejected), float64(t.accessCalls)), "ratio",
		fmt.Sprintf("%d rejected / %d attempts", t.rejected, t.accessCalls), false)
	add("core.meta_per_op", frac(float64(t.metaAccesses), float64(t.dataOps)), "ratio",
		fmt.Sprintf("%d metadata accesses / %d data ops", t.metaAccesses, t.dataOps), false)
	add("core.meta_hit_rate", frac(float64(t.metaHits), float64(t.metaLookups)), "ratio",
		fmt.Sprintf("%d hits / %d lookups", t.metaHits, t.metaLookups), false)
	add("core.parity_rmw_per_op", frac(float64(t.parityRMW), float64(t.dataOps)), "ratio",
		fmt.Sprintf("%d RMW / %d data ops", t.parityRMW, t.dataOps), false)

	add("dram.tick_calls", perN(t.tickCalls), "count", "", false)
	add("dram.tick_s", per(t.tick), "s", fmt.Sprintf("share %.3f of loop", frac(t.tick, t.loop)), false)
	add("dram.ns_per_tick", 1e9*frac(t.tick, float64(t.tickCalls)), "ns", fmt.Sprintf("%d calls", t.tickCalls), false)
	add("dram.skip_s", per(t.skip), "s", fmt.Sprintf("share %.3f of loop; %d NextEvent calls", frac(t.skip, t.loop), t.skipCalls), false)
	add("dram.row_hit_rate", frac(float64(t.rowHits), float64(t.rowHits+t.rowMisses)), "ratio",
		fmt.Sprintf("%d hits / %d column commands", t.rowHits, t.rowHits+t.rowMisses), false)
	add("dram.write_frac", frac(float64(t.dramWrites), float64(t.dramReads+t.dramWrites)), "ratio",
		fmt.Sprintf("%d writes / %d transactions", t.dramWrites, t.dramReads+t.dramWrites), false)
	add("dram.read_latency_cycles", frac(t.readLatSum, float64(t.readLatN)), "cycles", fmt.Sprintf("%d reads", t.readLatN), false)

	add("workload.next_calls", perN(t.nextCalls), "count", "", false)
	add("workload.next_s", per(t.next), "s", fmt.Sprintf("share %.3f of loop", frac(t.next, t.loop)), false)

	noFaults := t.injected == 0
	add("fault.injected", perN(t.injected), "count", "", noFaults)
	add("fault.scrub_reads", perN(t.scrubReads), "count", "", noFaults)
	add("fault.correction_reads", perN(t.corrections), "count", "", noFaults)
	add("fault.due", perN(t.due), "count", "", noFaults)

	add("trace.overhead_frac", frac(t.tracedWall, t.untracedWall)-1, "ratio",
		fmt.Sprintf("traced %.3fs / untraced %.3fs over %d runs; %d of %d loop iterations timed",
			t.tracedWall, t.untracedWall, t.runs, t.sampled, t.iters), false)
	return out
}
