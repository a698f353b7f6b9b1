package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/addrmap"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/enclave"
	"repro/internal/energy"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// layerTimes is what the step driver records about one simulation. Every
// call is counted. Host time is taken only in sampled loop iterations,
// chosen by a private generator so the choice never touches simulator
// state. Two kinds of sample share the budget so that no timed interval
// nests inside another:
//
//   - a block sample splits the iteration into back-to-back laps (the
//     loop's own glue, Engine.Tick, the cores' Cycle block, and
//     NextEvent+SkipTo), one clock read per boundary;
//   - a call sample times each Access and Next call the iteration makes.
//
// Each kind is scaled up by iters over its own sample count.
type layerTimes struct {
	iters, blockSamples, callSamples uint64

	cycleCalls, accessCalls, rejected, nextCalls uint64
	tickCalls, skipCalls                         uint64
	skippedDRAMCycles                            uint64

	// Raw intervals. empty times nothing and gives the clock's own
	// offset in place; glue, tick, block and skip are block-sample laps;
	// access and next are call-sample intervals.
	empty, glue, tick, block, skip, access, next interval

	loop  time.Duration // whole main loop, unsampled
	setup time.Duration // driver entry → first trace record pulled
}

// interval accumulates timed intervals of one kind.
type interval struct {
	ns, n float64 // raw nanoseconds, intervals
}

// layerSeconds is the step driver's estimate of where one run's main loop
// spent its host time. The parts add up to the loop's measured wall time;
// scale is the factor the sampled estimates were multiplied by to make
// them do so.
type layerSeconds struct {
	glue, cpuSelf, access, next, tick, skip float64
	scale                                   float64
}

// estimate turns the raw samples into per-layer seconds. Timing a short
// interval slows it (each clock read waits for the work before it), so the
// sampled parts add up to more than the loop took; they are scaled
// together to the loop's measured wall time, which also spreads the cost
// of the clock reads over them.
func (lt *layerTimes) estimate() layerSeconds {
	off := 0.0
	if lt.empty.n > 0 {
		off = lt.empty.ns / lt.empty.n
	}
	net := func(iv interval, samples uint64) float64 {
		if samples == 0 {
			return 0
		}
		return (iv.ns - iv.n*off) / 1e9 * float64(lt.iters) / float64(samples)
	}
	e := layerSeconds{
		glue:   net(lt.glue, lt.blockSamples),
		tick:   net(lt.tick, lt.blockSamples),
		skip:   net(lt.skip, lt.blockSamples),
		access: net(lt.access, lt.callSamples),
		next:   net(lt.next, lt.callSamples),
	}
	// Access and Next run inside Cycle; the cores' own time excludes them.
	e.cpuSelf = net(lt.block, lt.blockSamples) - e.access - e.next
	sum := e.glue + e.tick + e.skip + e.access + e.next + e.cpuSelf
	e.scale = 1
	if sum > 0 {
		e.scale = lt.loop.Seconds() / sum
	}
	for _, x := range []*float64{&e.glue, &e.tick, &e.skip, &e.access, &e.next, &e.cpuSelf} {
		*x *= e.scale
	}
	return e
}

// clockBase anchors nanos; time.Since on a monotonic base reads only the
// monotonic clock, about half the cost of time.Now.
var clockBase = time.Now()

func nanos() int64 { return int64(time.Since(clockBase)) }

// sampleEvery is the mean gap between sampled loop iterations, half of
// them block samples and half call samples. A sampled iteration reads the
// clock about eight times; at 1/64 the reads cost about one percent of
// the loop.
const sampleEvery = 64

// sampler is the per-run timing state the loop and the wrapped calls
// consult.
type sampler struct {
	lt          *layerTimes
	rng         uint64
	block, call bool  // kind of the current iteration's sample, if any
	mark        int64 // last lap boundary of a block sample
	lapOpen     bool  // a block sample's trailing glue lap is open
	start       time.Time
	pulled      bool
}

// roll decides whether and how the current loop iteration is sampled, and
// times an empty interval in each sampled one to track the clock's offset.
func (s *sampler) roll() {
	// xorshift64: deterministic, private to the driver.
	s.rng ^= s.rng << 13
	s.rng ^= s.rng >> 7
	s.rng ^= s.rng << 17
	s.lt.iters++
	s.block, s.call = false, false
	if s.rng%sampleEvery != 0 {
		return
	}
	if s.rng&(1<<32) == 0 {
		s.block = true
		s.lt.blockSamples++
	} else {
		s.call = true
		s.lt.callSamples++
	}
	t0 := nanos()
	d := float64(nanos() - t0)
	// An empty interval over a microsecond was interrupted; it says
	// nothing about the clock's cost.
	if d < 1000 {
		s.lt.empty.ns += d
		s.lt.empty.n++
	}
	if s.block {
		s.mark = nanos()
		s.lapOpen = true
	}
}

// lap closes the current block-sample lap into iv and opens the next.
func (s *sampler) lap(iv *interval) {
	now := nanos()
	iv.ns += float64(now - s.mark)
	iv.n++
	s.mark = now
}

// timeCall closes a call-sample interval opened at t0 into iv.
func (s *sampler) timeCall(iv *interval, t0 int64) {
	iv.ns += float64(nanos() - t0)
	iv.n++
}

// tracedSource counts (and in call samples times) trace.Source.Next.
type tracedSource struct {
	src trace.Source
	s   *sampler
}

func (t tracedSource) Next() (trace.Record, bool) {
	s := t.s
	s.lt.nextCalls++
	if !s.pulled {
		s.pulled = true
		s.lt.setup = time.Since(s.start)
	}
	if !s.call {
		return t.src.Next()
	}
	t0 := nanos()
	r, ok := t.src.Next()
	s.timeCall(&s.lt.next, t0)
	return r, ok
}

// Idle-watchdog budgets, in DRAM cycles without forward progress; the
// same limits sim.RunContext applies.
const (
	drainLimit    = 2_000_000
	deadlockLimit = 4_000_000
)

var errWedged = errors.New("step driver: no forward progress")

// defaultPolicy mirrors sim's per-scheme default address mapping.
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

// stepDrive runs one simulation with sim.RunContext's main loop rebuilt
// from the layers' public calls — cpu.Core.Cycle (its issue callback
// wrapping core.Engine.Access), core.Engine.Tick, dram.Memory.NextEvent and
// SkipTo, and wrapped trace.Source.Next — so each layer's calls can be
// counted and timed from outside the program. The result must be
// bit-identical to sim.RunContext's for the same config; the traced run
// checks that and fails if it is not. LLC filtering and observers are not
// reproduced.
func stepDrive(ctx context.Context, cfg sim.Config, lt *layerTimes) (*sim.Result, []*cpu.Core, error) {
	smp := &sampler{lt: lt, rng: 0x9e3779b97f4a7c15, start: time.Now()}
	if cfg.Cores <= 0 {
		return nil, nil, fmt.Errorf("step driver: cores must be positive")
	}
	if cfg.FilterLLC || cfg.Obs != nil {
		return nil, nil, fmt.Errorf("step driver: LLC filtering and observers are not supported")
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
		if scheme, err = core.SchemeByName(cfg.SchemeName, cfg.Cores); err != nil {
			return nil, nil, err
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
		return nil, nil, err
	}
	timing := dram.DDR3_1600()
	cpuPerDRAM := dram.CPUCyclesPerDRAMCycle
	if cfg.DDR4 {
		timing = dram.DDR4_2400()
		cpuPerDRAM = 3
	}
	dmem := dram.New(dram.Config{
		Timing: timing, Geom: geom,
		ReadQ: 48, WriteQ: 48, HighWM: 40, LowWM: 20,
		TickWorkers: cfg.TickWorkers,
	})
	defer dmem.Close()
	dataPages := uint64(float64(geom.CapacityBytes())*cfg.DataFrac) / mem.PageSize
	var encl *enclave.System
	if cfg.DenseAlloc {
		encl = enclave.NewDenseSystem(dataPages)
	} else {
		encl = enclave.NewSystem(dataPages)
	}
	engine, err := core.New(core.Config{
		Scheme: scheme, Policy: policy, Cores: cfg.Cores,
		DataPages: dataPages, StrictVerify: cfg.StrictVerify,
	}, dmem, encl)
	if err != nil {
		return nil, nil, err
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
			return nil, nil, err
		}
		engine.AttachFaults(fctl)
	}
	cores := make([]*cpu.Core, cfg.Cores)
	for i := range cores {
		var src trace.Source
		if cfg.Sources != nil {
			src = cfg.Sources[i]
		} else {
			src = workload.NewGenerator(cfg.Benchmark, cfg.Seed+int64(i)*7919+1)
		}
		encl.Create(mem.EnclaveID(i))
		cores[i] = cpu.NewCore(i, cfg.CPU, tracedSource{src: src, s: smp}, cfg.OpsPerCore+cfg.WarmupOps)
	}

	issue := func(c int, rec trace.Record) (uint64, bool, error) {
		lt.accessCalls++
		var tok uint64
		var ok bool
		var err error
		if smp.call {
			t0 := nanos()
			tok, ok, err = engine.Access(c, rec)
			smp.timeCall(&lt.access, t0)
		} else {
			tok, ok, err = engine.Access(c, rec)
		}
		if !ok {
			lt.rejected++
		}
		return tok, ok, err
	}

	loopStart := time.Now()
	var cpuCycle uint64
	var idle uint64 // consecutive no-progress DRAM cycles
	var tokenBuf []uint64
	var iter uint64
	for {
		if smp.lapOpen {
			smp.lap(&lt.glue)
			smp.lapOpen = false
		}
		if iter++; iter%4096 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		smp.roll()
		allDone := true
		for _, c := range cores {
			if !c.Done() {
				allDone = false
				break
			}
		}
		if allDone {
			engine.QuiesceFaults()
			if engine.Pending() == 0 {
				break
			}
		}
		progressed := false
		lt.tickCalls++
		if smp.block {
			smp.lap(&lt.glue)
		}
		tokens, engActive := engine.Tick(tokenBuf[:0])
		if smp.block {
			smp.lap(&lt.tick)
		}
		tokenBuf = tokens[:0]
		for _, tok := range tokens {
			cores[core.TokenCore(tok)].OnComplete(tok)
			progressed = true
		}
		coresActive := false
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
		// The cores' block is timed as one lap: a Cycle call is cheaper
		// than a clock read, so timing each call would mostly measure the
		// clock.
		if smp.block && !allBlocked {
			smp.lap(&lt.glue)
		}
		for i := 0; !allBlocked && i < cpuPerDRAM; i++ {
			cpuCycle++
			for _, c := range cores {
				if c.Blocked() {
					c.StallTick()
					continue
				}
				before := c.Retired()
				lt.cycleCalls++
				active, err := c.Cycle(cpuCycle, issue)
				if err != nil {
					return nil, nil, err
				}
				coresActive = coresActive || active
				if c.Retired() != before {
					progressed = true
				}
			}
		}
		if smp.block && !allBlocked {
			smp.lap(&lt.block)
		}
		if progressed {
			idle = 0
		} else if idle++; idle > deadlockLimit || (allDone && idle > drainLimit) {
			return nil, nil, fmt.Errorf("%w at cycle %d", errWedged, cpuCycle)
		}
		if cfg.DisableIdleSkip || engActive || coresActive || len(tokens) > 0 {
			continue
		}
		lt.skipCalls++
		if smp.block {
			smp.lap(&lt.glue)
		}
		next := dmem.NextEvent()
		if fw := engine.FaultNextWake(); fw < next {
			next = fw
		}
		if next == ^uint64(0) || next <= dmem.Now() {
			if smp.block {
				smp.lap(&lt.skip)
			}
			continue
		}
		skip := next - dmem.Now()
		dmem.SkipTo(next)
		if smp.block {
			smp.lap(&lt.skip)
		}
		lt.skippedDRAMCycles += skip
		cc := skip * uint64(cpuPerDRAM)
		cpuCycle += cc
		for _, c := range cores {
			c.AddIdleCycles(cc)
		}
		if idle += skip; idle > deadlockLimit || (allDone && idle > drainLimit) {
			return nil, nil, fmt.Errorf("%w at cycle %d", errWedged, cpuCycle)
		}
	}
	if smp.lapOpen {
		smp.lap(&lt.glue)
	}
	lt.loop = time.Since(loopStart)

	res := &sim.Result{Config: cfg, Scheme: scheme, Engine: engine, Memory: dmem}
	var maxFinish uint64
	for _, c := range cores {
		res.PerCoreCycles = append(res.PerCoreCycles, c.FinishCycle())
		maxFinish = max(maxFinish, c.FinishCycle())
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
	return res, cores, nil
}
