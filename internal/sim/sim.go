// Package sim binds the trace-driven cores, the secure-memory engine, and
// the DRAM model into a full multi-programmed simulation, reproducing the
// paper's methodology: N copies of a benchmark, one enclave per core, a
// single security engine at the memory controller, and DDR3-1600 channels.
package sim

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/addrmap"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/enclave"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/llc"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Config describes one simulation run.
type Config struct {
	// SchemeName selects the secure-memory scheme (see core.SchemeNames).
	SchemeName string
	// Benchmark is the workload generated for every core.
	Benchmark workload.Spec
	// Cores is the number of cores / enclaves / program copies.
	Cores int
	// Channels is the number of DDR channels (paper: 1 for 4 cores, 2 for
	// 8 cores).
	Channels int
	// PolicyName selects the address-mapping policy; empty means the
	// scheme's best default (column for baselines, rbh4 for ITESP).
	PolicyName string
	// OpsPerCore is the number of memory operations simulated per core
	// (the paper uses 5M; experiments here default lower for runtime).
	OpsPerCore uint64
	// WarmupOps per core are executed before stats collection.
	WarmupOps uint64
	// Seed diversifies the per-core generators.
	Seed int64
	// DataFrac is the fraction of DRAM capacity given to the data region
	// (rest holds metadata). Zero means 0.75.
	DataFrac float64
	// MetaKBPerCore scales the scheme's on-chip cache budget (Fig 13
	// sensitivity); zero keeps the paper default of 16 KB per core.
	MetaKBPerCore int
	// DenseAlloc hands out physical pages in address order instead of the
	// default scattered (fragmented-EPC) order — the idealized
	// single-program layout of the Fig 2/3 "Small" model.
	DenseAlloc bool
	// DDR4 swaps the DDR3-1600 timing for DDR4-2400 (sensitivity study;
	// the CPU:bus clock ratio becomes 3:1 for a 3.6 GHz core).
	DDR4 bool
	// FilterLLC interposes a per-core LLC slice between the generator and
	// the memory system. The generator stream is then interpreted as
	// pre-LLC references, and write-backs emerge from dirty evictions
	// instead of the generators' calibrated write fractions.
	FilterLLC bool
	// LLCMBPerCore sizes each core's LLC slice (default 2 MB, i.e. the
	// paper's 8 MB shared LLC across 4 cores).
	LLCMBPerCore int
	// StrictVerify disables speculative verification.
	StrictVerify bool
	// Deprecated: TickWorkers is a stub left from channel-parallel DRAM
	// ticking, which was removed. DRAM channels always tick serially;
	// RunContext accepts 0 and 1 and returns an error for anything
	// larger. The stub exists only because the benchmark's step driver
	// (perfbench/stepdriver.go) still reads it; delete it when a benchmark
	// change drops it there.
	TickWorkers int
	// DisableIdleSkip forces the straight-line tick-by-tick loop, never
	// fast-forwarding through idle periods. Results are bit-identical with
	// and without skipping (the golden equivalence test asserts this); the
	// knob exists for that comparison and for debugging.
	DisableIdleSkip bool
	// Faults configures the deterministic fault-injection campaign. The
	// zero value disables it entirely, leaving the run bit-identical to a
	// simulator without the fault subsystem.
	Faults fault.Config
	// CPU overrides the core pipeline; zero value uses Table III.
	CPU cpu.Config

	// Scheme optionally overrides SchemeName with an explicit scheme.
	Scheme *core.Scheme
	// Sources optionally overrides the per-core trace sources.
	Sources []trace.Source

	// Obs optionally attaches an observability bundle (metrics registry,
	// epoch time-series, event tracing, live progress) to the run. Nil
	// disables everything; the simulated cycle counts are identical either
	// way because observation is strictly read-only. An Observer must be
	// fresh per run.
	Obs *obs.Observer
}

// Result carries the measurements of one run.
type Result struct {
	Config Config
	Scheme core.Scheme

	// Cycles is execution time in CPU cycles (slowest core to finish),
	// including the post-hoc local-counter overflow penalty.
	Cycles uint64
	// PerCoreCycles is each core's finish time.
	PerCoreCycles []uint64
	// Engine exposes engine-side stats (metadata traffic, Fig 3 patterns).
	Engine *core.Engine
	// Memory exposes DRAM-side stats (row hits, energy counts).
	Memory *dram.Memory
	// MemoryJoules is the Fig 10 memory-energy estimate.
	MemoryJoules float64
	// SystemEDP is the Fig 10 system energy-delay product.
	SystemEDP float64
	// Overflows counts local-counter re-encryptions.
	Overflows uint64
	// Faults is the fault-campaign digest (nil when faults are disabled).
	Faults *fault.Summary
}

// MetaPerOp returns metadata accesses per data operation (Fig 9 metric).
func (r *Result) MetaPerOp() float64 { return r.Engine.Stats.MetaAccessesPerOp() }

// RowHitRate returns the all-channel row-buffer hit rate.
func (r *Result) RowHitRate() float64 {
	var hits, total uint64
	for c := 0; c < r.Memory.Config().Geom.Channels; c++ {
		s := r.Memory.ChannelStats(c)
		hits += s.RowHits.Value()
		total += s.RowHits.Value() + s.RowMisses.Value()
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// MetaCacheHitRate returns the metadata cache hit rate (0 if no cache).
func (r *Result) MetaCacheHitRate() float64 {
	mc := r.Engine.MetaCache()
	if mc == nil {
		return 0
	}
	return mc.Stats.HitRate()
}

// attachObs wires the run's observability bundle through every layer:
// trace tracks (one per core and one per DRAM channel, with the shared CPU
// cycle counter as the timebase), metric registration for the engine, the
// DRAM channels, the cores, and the LLC filters, and the epoch-series
// probe columns. A nil cfg.Obs leaves every component's hooks nil.
func attachObs(cfg Config, engine *core.Engine, dmem *dram.Memory, cores []*cpu.Core, filters []*llc.Filter, cpuCycle *uint64) {
	o := cfg.Obs
	if o == nil {
		return
	}
	channels := dmem.Config().Geom.Channels

	tr := o.Trace
	var coreTracks, chanTracks []obs.TrackID
	if tr != nil {
		tr.SetClock(func() uint64 { return *cpuCycle })
		tr.Process(obs.PidCores, "cores")
		tr.Process(obs.PidChannels, "dram channels")
		for i := range cores {
			coreTracks = append(coreTracks, tr.NewTrack(obs.PidCores, "core "+strconv.Itoa(i)))
		}
		for c := 0; c < channels; c++ {
			chanTracks = append(chanTracks, tr.NewTrack(obs.PidChannels, "channel "+strconv.Itoa(c)))
		}
	}
	engine.AttachObs(o.Registry, tr, coreTracks)
	dmem.AttachObs(o.Registry, tr, chanTracks)
	if f := engine.Faults(); f != nil {
		if tr != nil {
			tr.Process(obs.PidFaults, "fault campaign")
			f.AttachTrace(tr, tr.NewTrack(obs.PidFaults, "faults"))
		}
		f.Register(o.Registry)
	}

	if reg := o.Registry; reg != nil {
		for i, c := range cores {
			c := c
			l := obs.Labels{"core": strconv.Itoa(i)}
			reg.Counter("cpu_reads_total", l, &c.Reads)
			reg.Counter("cpu_writes_total", l, &c.Writes)
			reg.Counter("cpu_stall_cycles_total", l, &c.StallCycles)
			reg.Gauge("cpu_retired_instructions", l, func() float64 { return float64(c.Retired()) })
		}
		for i, f := range filters {
			f.Register(reg, obs.Labels{"core": strconv.Itoa(i)})
		}
		reg.Gauge("sim_cpu_cycles", nil, func() float64 { return float64(*cpuCycle) })
	}

	if s := o.Series; s != nil {
		// The bandwidth columns convert bytes-per-CPU-cycle to GB/s via the
		// core clock: 3.2 GHz for DDR3-1600 (4:1), 3.6 GHz for DDR4-2400.
		ghz := 3.2
		if cfg.DDR4 {
			ghz = 3.6
		}
		retired := func() float64 {
			var n uint64
			for _, c := range cores {
				n += c.Retired()
			}
			return float64(n)
		}
		st := &engine.Stats
		ops := func() float64 { return float64(st.DataOps()) }
		metaTotal := func() float64 {
			var t uint64
			for k := 0; k < mem.NumKinds; k++ {
				if mem.Kind(k) == mem.KindData {
					continue
				}
				t += st.MetaReads[k].Value() + st.MetaWrites[k].Value()
			}
			return float64(t)
		}
		s.Rate("ipc", retired, 1)
		s.Ratio("meta_per_op", metaTotal, ops)
		if mc := engine.MetaCache(); mc != nil {
			s.Ratio("meta_hit_rate",
				func() float64 { return float64(mc.Stats.Hits.Value()) },
				func() float64 { return float64(mc.Stats.Hits.Value() + mc.Stats.Misses.Value()) })
		}
		if len(filters) > 0 {
			s.Ratio("llc_hit_rate",
				func() float64 {
					var h uint64
					for _, f := range filters {
						hits, _ := f.LookupCounts()
						h += hits
					}
					return float64(h)
				},
				func() float64 {
					var t uint64
					for _, f := range filters {
						_, total := f.LookupCounts()
						t += total
					}
					return float64(t)
				})
		}
		s.Ratio("parity_rmw_per_op", func() float64 { return float64(st.ParityRMW.Value()) }, ops)
		for c := 0; c < channels; c++ {
			cs := dmem.ChannelStats(c)
			name := "chan" + strconv.Itoa(c)
			s.Rate(name+"_gbps", func() float64 {
				return float64((cs.Reads.Value() + cs.Writes.Value()) * mem.BlockSize)
			}, ghz)
			s.Ratio(name+"_row_hit_rate",
				func() float64 { return float64(cs.RowHits.Value()) },
				func() float64 { return float64(cs.RowHits.Value() + cs.RowMisses.Value()) })
		}
	}
}

// defaultPolicy picks the best mapping per scheme (Section V-C): the
// baselines favor pure row-buffer locality (column); embedded parity wants
// the N-row-buffer-hit policy whose group size matches the number of parity
// fields per leaf, so that N consecutive row-buffer-local blocks still land
// in a single leaf node; standalone shared parity likewise groups blocks of
// different ranks and favors rbh4.
func defaultPolicy(s core.Scheme) string {
	switch s.Parity {
	case core.ParityEmbedded:
		switch {
		case s.Tree.ParitiesPerLeaf >= 4:
			return "rbh4"
		case s.Tree.ParitiesPerLeaf == 2:
			return "rbh2"
		default:
			return "rank"
		}
	case core.ParityShared:
		return "rbh4"
	}
	return "column"
}

// cancelStride is how many main-loop iterations pass between cancellation
// checks in RunContext. Each iteration covers at least one DRAM cycle (idle
// fast-forward covers many more), so a canceled run stops within
// microseconds of wall clock while the uncancellable path pays one
// predictable nil-comparison per iteration.
const cancelStride = 4096

// Run executes one simulation to completion.
func Run(cfg Config) (*Result, error) { return RunContext(context.Background(), cfg) }

// RunContext executes one simulation to completion, abandoning it with an
// ErrCanceled-wrapped error (which also wraps ctx.Err(), so
// errors.Is(err, context.Canceled) and context.DeadlineExceeded hold) as
// soon as a coarse-stride check observes the context's cancellation. The
// check is observationally free: it mutates no simulation state, so a run
// whose context never fires is bit-identical to Run — the golden
// cycle-equivalence tests pin this — and contexts that can never fire
// (context.Background) skip the check entirely.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("sim: cores must be positive")
	}
	if cfg.TickWorkers > 1 {
		return nil, fmt.Errorf("sim: TickWorkers=%d: channel-parallel DRAM ticking was removed", cfg.TickWorkers)
	}
	if cfg.Channels <= 0 {
		cfg.Channels = 1
	}
	if cfg.OpsPerCore == 0 {
		cfg.OpsPerCore = 100_000
	}
	if cfg.DataFrac == 0 {
		cfg.DataFrac = 0.75
	}
	var scheme core.Scheme
	if cfg.Scheme != nil {
		scheme = *cfg.Scheme
	} else {
		var err error
		scheme, err = core.SchemeByName(cfg.SchemeName, cfg.Cores)
		if err != nil {
			return nil, err
		}
	}
	if cfg.MetaKBPerCore > 0 && cfg.MetaKBPerCore != 16 {
		scheme.MetaCacheKB = scheme.MetaCacheKB * cfg.MetaKBPerCore / 16
		scheme.MACCacheKB = scheme.MACCacheKB * cfg.MetaKBPerCore / 16
		scheme.ParityCacheKB = scheme.ParityCacheKB * cfg.MetaKBPerCore / 16
	}
	if cfg.PolicyName == "" {
		cfg.PolicyName = defaultPolicy(scheme)
	}
	geom := addrmap.DefaultGeometry(cfg.Channels)
	policy, err := addrmap.ByName(cfg.PolicyName, geom)
	if err != nil {
		return nil, err
	}

	timing := dram.DDR3_1600()
	cpuPerDRAM := dram.CPUCyclesPerDRAMCycle
	if cfg.DDR4 {
		timing = dram.DDR4_2400()
		cpuPerDRAM = 3
	}
	dmem := dram.New(dram.Config{
		Timing: timing,
		Geom:   geom,
		ReadQ:  48, WriteQ: 48, HighWM: 40, LowWM: 20,
	})
	dataPages := uint64(float64(geom.CapacityBytes())*cfg.DataFrac) / mem.PageSize
	var encl *enclave.System
	if cfg.DenseAlloc {
		encl = enclave.NewDenseSystem(dataPages)
	} else {
		encl = enclave.NewSystem(dataPages)
	}
	engine, err := core.New(core.Config{
		Scheme:       scheme,
		Policy:       policy,
		Cores:        cfg.Cores,
		DataPages:    dataPages,
		StrictVerify: cfg.StrictVerify,
	}, dmem, encl)
	if err != nil {
		return nil, err
	}

	var fctl *fault.Controller
	if cfg.Faults.Enabled() {
		fctl, err = fault.NewController(cfg.Faults, fault.Env{
			Layout:     engine.ParityLayout(),
			Detect:     engine.CanDetectFaults(),
			Correct:    engine.CanCorrectFaults(),
			DataBlocks: dataPages * mem.BlocksPage,
		})
		if err != nil {
			return nil, err
		}
		engine.AttachFaults(fctl)
	}

	cores := make([]*cpu.Core, cfg.Cores)
	var filters []*llc.Filter
	for i := range cores {
		var src trace.Source
		if cfg.Sources != nil {
			src = cfg.Sources[i]
		} else {
			src = workload.NewGenerator(cfg.Benchmark, cfg.Seed+int64(i)*7919+1)
		}
		if cfg.FilterLLC {
			mb := cfg.LLCMBPerCore
			if mb <= 0 {
				mb = 2
			}
			f := llc.NewFilter(src, llc.Config{SizeMB: mb, Ways: 16})
			filters = append(filters, f)
			src = f
		}
		encl.Create(mem.EnclaveID(i))
		cores[i] = cpu.NewCore(i, cfg.CPU, src, cfg.OpsPerCore+cfg.WarmupOps)
	}

	var cpuCycle uint64
	attachObs(cfg, engine, dmem, cores, filters, &cpuCycle)

	// Tokens encode their issuing core in the low bits (core.TokenCore), so
	// completion routing needs no token-to-owner map and the issue path is
	// the engine's Access method unwrapped.
	issue := engine.Access

	// Observability bookkeeping: all nil/zero (and therefore skipped by
	// one predictable branch per DRAM tick) unless cfg.Obs enables them.
	var series *obs.Series
	var prog *obs.Progress
	var nextEpoch uint64
	opsTarget := uint64(cfg.Cores) * (cfg.OpsPerCore + cfg.WarmupOps)
	opsDone := func() uint64 {
		var n uint64
		for _, c := range cores {
			n += c.OpsIssued()
		}
		return n
	}
	if cfg.Obs != nil {
		series = cfg.Obs.Series
		prog = cfg.Obs.Progress
		if series != nil {
			series.Sample(0) // latch epoch baselines
			nextEpoch = series.Interval()
		}
	}

	cancelable := ctx.Done() != nil
	if cancelable {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("%w at cycle 0: %w", ErrCanceled, err)
		}
	}
	var sinceCancelCheck uint64

	var wd drainWatchdog
	var tokenBuf []uint64
	for {
		if cancelable {
			if sinceCancelCheck++; sinceCancelCheck >= cancelStride {
				sinceCancelCheck = 0
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("%w at cycle %d: %w", ErrCanceled, cpuCycle, err)
				}
			}
		}
		allDone := true
		for _, c := range cores {
			if !c.Done() {
				allDone = false
				break
			}
		}
		if allDone {
			// Stop injecting and scrubbing so the run can drain;
			// in-flight corrections still resolve (Pending covers them).
			engine.QuiesceFaults()
			if engine.Pending() == 0 {
				break
			}
		}
		progressed := false
		tokens, engActive := engine.Tick(tokenBuf[:0])
		tokenBuf = tokens[:0]
		for _, tok := range tokens {
			cores[core.TokenCore(tok)].OnComplete(tok)
			progressed = true
		}
		coresActive := false
		// A core blocked on memory cannot unblock within the burst
		// (completions are delivered only before it, and only OnComplete
		// clears the flag), so when every core is blocked the whole burst
		// reduces to charging cpuPerDRAM stall cycles per core — the
		// arithmetic identity of running the loop below.
		allBlocked := true
		for _, c := range cores {
			if !c.Blocked() {
				allBlocked = false
				break
			}
		}
		if allBlocked {
			cpuCycle += uint64(cpuPerDRAM)
			for _, c := range cores {
				c.AddIdleCycles(uint64(cpuPerDRAM))
			}
		}
		for i := 0; !allBlocked && i < cpuPerDRAM; i++ {
			cpuCycle++
			for _, c := range cores {
				// Blocked cores inside a mixed burst still charge their
				// stalls cycle by cycle (another core's issue cannot unblock
				// them, but the loop order is part of the pinned behavior).
				if c.Blocked() {
					c.StallTick()
					continue
				}
				before := c.Retired()
				active, err := c.Cycle(cpuCycle, issue)
				if err != nil {
					return nil, err
				}
				coresActive = coresActive || active
				if c.Retired() != before {
					progressed = true
				}
			}
		}
		if series != nil && cpuCycle >= nextEpoch {
			series.Sample(cpuCycle)
			nextEpoch += series.Interval()
		}
		if prog != nil {
			prog.Maybe(func() obs.ProgressStat {
				return obs.ProgressStat{CPUCycles: cpuCycle, OpsDone: opsDone(), OpsTarget: opsTarget}
			})
		}
		if err := wd.observe(progressed, 1, allDone, cpuCycle, engine.Pending()); err != nil {
			return nil, err
		}

		// Idle fast-forward: this iteration delivered nothing, issued
		// nothing, and changed no core state, so every following iteration
		// repeats it exactly — except for stall/bus-busy counters and epoch
		// boundaries, which advance arithmetically — until the next DRAM
		// event. Skip to it in bulk (chunked at epoch boundaries so Series
		// samples fire at identical cpuCycle values).
		if cfg.DisableIdleSkip || engActive || coresActive || len(tokens) > 0 {
			continue
		}
		next := dmem.NextEvent()
		if fw := engine.FaultNextWake(); fw < next {
			// The fault campaign must act (injection or scrub) before the
			// next DRAM event: clamp the skip so it fires on time.
			next = fw
		}
		if next == ^uint64(0) || next <= dmem.Now() {
			continue
		}
		for skip := next - dmem.Now(); skip > 0; {
			chunk := skip
			if series != nil {
				need := uint64(1)
				if nextEpoch > cpuCycle {
					need = (nextEpoch - cpuCycle + uint64(cpuPerDRAM) - 1) / uint64(cpuPerDRAM)
				}
				if need < chunk {
					chunk = need
				}
			}
			dmem.SkipTo(dmem.Now() + chunk)
			cc := chunk * uint64(cpuPerDRAM)
			cpuCycle += cc
			for _, c := range cores {
				c.AddIdleCycles(cc)
			}
			if series != nil && cpuCycle >= nextEpoch {
				series.Sample(cpuCycle)
				nextEpoch += series.Interval()
			}
			if err := wd.observe(false, chunk, allDone, cpuCycle, engine.Pending()); err != nil {
				return nil, err
			}
			skip -= chunk
		}
		if prog != nil {
			prog.Maybe(func() obs.ProgressStat {
				return obs.ProgressStat{CPUCycles: cpuCycle, OpsDone: opsDone(), OpsTarget: opsTarget}
			})
		}
	}

	// Close the final (possibly partial) epoch and flush progress so short
	// runs still produce a non-empty time-series.
	if series != nil {
		series.Sample(cpuCycle)
	}
	if prog != nil {
		prog.Flush(obs.ProgressStat{CPUCycles: cpuCycle, OpsDone: opsDone(), OpsTarget: opsTarget})
	}

	res := &Result{
		Config: cfg,
		Scheme: scheme,
		Engine: engine,
		Memory: dmem,
	}
	var maxFinish uint64
	for _, c := range cores {
		res.PerCoreCycles = append(res.PerCoreCycles, c.FinishCycle())
		if c.FinishCycle() > maxFinish {
			maxFinish = c.FinishCycle()
		}
	}
	res.Overflows = engine.Overflows()
	if fctl != nil {
		fctl.Finalize(dmem.Now())
		res.Faults = fctl.Summarize()
	}
	res.Cycles = maxFinish
	if scheme.ModelOverflow {
		res.Cycles += engine.OverflowPenaltyCycles() / uint64(cfg.Cores)
	}
	p := energy.DefaultParams()
	res.MemoryJoules = energy.MemoryJoules(dmem, dmem.Now(), p)
	res.SystemEDP = energy.SystemEDP(res.MemoryJoules, res.Cycles, cfg.Cores, p)
	return res, nil
}
