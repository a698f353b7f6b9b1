package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/mem"
	"repro/internal/obs/sweep"
	"repro/internal/runspec"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Workload shapes. Each is sized so that one repetition takes about a
// second or more on a 2-CPU host, which keeps per-repetition timer and
// scheduling noise small against the measured work.
const (
	fig8Ops    = 4000 // ops per core in the reduced Fig 8 yardstick
	lowMPKIOps = 4000 // ep alone simulates ~3.9M CPU cycles at this size
	mixOps     = 8000
)

var (
	fig8Benchmarks    = []string{"pr", "cc", "mcf", "lbm"}
	lowMPKIBenchmarks = []string{"perlbench", "namd", "ep", "xalancbmk"}
	lowMPKISchemes    = []string{"nonsecure", "itesp"}
	// mixBenchmarks alternates write-heavy (WriteFrac 0.45-0.5) and
	// read-heavy benchmarks so both DRAM queues stay busy on each channel.
	mixBenchmarks = []string{"lbm", "pr", "is", "cc", "mg", "mcf", "bwaves", "tc"}
	mixSchemes    = []string{"synergy", "sharedparity", "itesp"}
)

// workloadDef is one named benchmark workload.
type workloadDef struct {
	name string
	why  string
	// sweep is true for the workload that goes through experiments.Fig8
	// (and therefore internal/runner); the others call sim.RunContext
	// serially.
	sweep bool
}

var workloads = []workloadDef{
	{name: "fig8-sweep", sweep: true,
		why: "reduced Fig 8 through experiments.Fig8 at the default parallelism: DRAM-scheduler bound, and the only workload that goes through the runner"},
	{name: "low-mpki",
		why: "serial low-intensity runs: cores rarely block and DRAM queues stay near empty, so cpu.Core.Cycle and the sim loop dominate"},
	{name: "mix8-rw-faults",
		why: "8-core 2-channel read/write mix with a chip-kill campaign and scrub: write drain, parity read-modify-write and the fault layer"},
}

func lookupWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// traceSeed maps the benchmark's --seed to the simulator's trace seed. The
// offset keeps it away from 0, which experiments.Options reads as "use the
// default seed 42".
func traceSeed(seed int64) int64 { return 1000 + seed }

// runCase is one simulation: a config plus a factory for fresh trace
// sources, so every repetition replays the same inputs. A nil factory
// leaves source generation to the simulator.
type runCase struct {
	key     string
	cfg     sim.Config
	sources func() ([]trace.Source, error)
}

// serialCases generates the inputs of a serial workload for one seed.
func serialCases(w workloadDef, seed int64) ([]runCase, error) {
	ts := traceSeed(seed)
	var cases []runCase
	switch w.name {
	case "low-mpki":
		for _, b := range lowMPKIBenchmarks {
			spec, err := workload.ByName(b)
			if err != nil {
				return nil, err
			}
			for _, s := range lowMPKISchemes {
				cfg := sim.Config{SchemeName: s, Benchmark: spec, Cores: 4, Channels: 1, OpsPerCore: lowMPKIOps, Seed: ts}
				cases = append(cases, runCase{
					key: s + "/" + b,
					cfg: cfg,
					// The generators sim.RunContext would build itself for
					// this config, handed in explicitly so they can be wrapped.
					sources: func() ([]trace.Source, error) {
						srcs := make([]trace.Source, cfg.Cores)
						for i := range srcs {
							srcs[i] = workload.NewGenerator(spec, ts+int64(i)*7919+1)
						}
						return srcs, nil
					},
				})
			}
		}
	case "mix8-rw-faults":
		for _, s := range mixSchemes {
			cases = append(cases, runCase{
				key: s + "/mix8",
				cfg: sim.Config{
					SchemeName: s, Cores: len(mixBenchmarks), Channels: 2, OpsPerCore: mixOps, Seed: ts,
					Faults: fault.Config{
						N: 64, Kind: "chip", Seed: ts,
						Interval: 4000, SpanBlocks: 1024, ScrubInterval: 100,
					},
				},
				sources: func() ([]trace.Source, error) {
					srcs, _, err := workload.MixSources(mixBenchmarks, ts)
					return srcs, err
				},
			})
		}
	default:
		return nil, fmt.Errorf("workload %q has no serial cases", w.name)
	}
	return cases, nil
}

// fig8Options is the experiments.Fig8 call of the fig8-sweep workload:
// default Parallel and no result cache, exactly what `experiments -fig 8`
// users get, restricted to four benchmarks at reduced scale.
func fig8Options(ctx context.Context, seed int64, col *sweep.Collector) experiments.Options {
	return experiments.Options{
		OpsPerCore: fig8Ops,
		Benchmarks: fig8Benchmarks,
		Seed:       traceSeed(seed),
		W:          io.Discard,
		Ctx:        ctx,
		Telemetry:  col,
	}
}

// fig8Cases rebuilds the job list experiments.Fig8 runs for fig8Options,
// so the traced run can replay each job through the step driver. The
// traced run checks each replay against the sweep's own summary, which
// fails loudly if this list ever drifts from the experiments package.
func fig8Cases(seed int64) ([]runCase, error) {
	var cases []runCase
	for _, b := range fig8Benchmarks {
		for _, s := range append([]string{"nonsecure"}, experiments.Fig8Schemes...) {
			spec := runspec.Spec{Scheme: s, Benchmark: b, Cores: 4, Channels: 1, OpsPerCore: fig8Ops, Seed: traceSeed(seed)}
			cfg, err := spec.SimConfig()
			if err != nil {
				return nil, err
			}
			cases = append(cases, runCase{key: s + "/" + b, cfg: cfg})
		}
	}
	return cases, nil
}

// checkRun applies the per-run correctness checks: a fault campaign must
// account for every injected fault exactly once.
func checkRun(res *sim.Result) error {
	if res.Cycles == 0 {
		return fmt.Errorf("zero simulated cycles")
	}
	if res.Config.Faults.Enabled() {
		if res.Faults == nil {
			return fmt.Errorf("fault campaign configured but no fault summary")
		}
		if err := res.Faults.CheckInvariant(); err != nil {
			return err
		}
		if res.Faults.Injected == 0 {
			return fmt.Errorf("fault campaign injected nothing")
		}
	}
	return nil
}

// checkFig8 applies the sweep-level check: the reduced Fig 8 must keep
// ITESP's top-15 geomean ahead of Synergy's.
func checkFig8(r *experiments.Fig8Result) error {
	want := len(fig8Benchmarks) * (1 + len(experiments.Fig8Schemes))
	if len(r.Raw) != want {
		return fmt.Errorf("fig8: %d summaries, want %d", len(r.Raw), want)
	}
	if imp := r.Improvement("itesp", "synergy"); !(imp > 0) {
		return fmt.Errorf("fig8: ITESP improvement over Synergy is %+.1f%%, want > 0", 100*imp)
	}
	return nil
}

// engineCounts and channelCounts copy every raw engine and DRAM counter of
// a finished run, so two runs compare on more than the derived summary.
type engineCounts struct {
	DataReads, DataWrites      uint64
	MetaReads, MetaWrites      [mem.NumKinds]uint64
	Patterns                   [2][core.NumPatternCases]uint64
	ParityRMW, ParitySplitLeaf uint64
}

type channelCounts struct {
	Reads, Writes, Activates, Precharges, Refreshes uint64
	RowHits, RowMisses, BusBusy                     uint64
	ReadLatN                                        uint64
	ReadLatSum                                      float64
	KindReads, KindWrites                           [mem.NumKinds]uint64
}

type runDigest struct {
	Summary  *sim.Summary
	DRAMNow  uint64
	Engine   engineCounts
	Channels []channelCounts
}

// digestOf renders a run's simulated statistics as canonical JSON. Equal
// digests mean equal cycles, per-core cycles, engine and DRAM statistics,
// energy and fault accounting.
func digestOf(res *sim.Result) string {
	d := runDigest{Summary: res.Summarize(), DRAMNow: res.Memory.Now()}
	st := &res.Engine.Stats
	d.Engine.DataReads, d.Engine.DataWrites = st.DataReads.Value(), st.DataWrites.Value()
	for k := range mem.NumKinds {
		d.Engine.MetaReads[k], d.Engine.MetaWrites[k] = st.MetaReads[k].Value(), st.MetaWrites[k].Value()
	}
	for w := range 2 {
		for c := range core.NumPatternCases {
			d.Engine.Patterns[w][c] = st.Patterns[w][c].Value()
		}
	}
	d.Engine.ParityRMW, d.Engine.ParitySplitLeaf = st.ParityRMW.Value(), st.ParitySplitLeaf.Value()
	for c := range res.Memory.Config().Geom.Channels {
		cs := res.Memory.ChannelStats(c)
		cc := channelCounts{
			Reads: cs.Reads.Value(), Writes: cs.Writes.Value(),
			Activates: cs.Activates.Value(), Precharges: cs.Precharges.Value(), Refreshes: cs.Refreshes.Value(),
			RowHits: cs.RowHits.Value(), RowMisses: cs.RowMisses.Value(), BusBusy: cs.BusBusy.Value(),
			ReadLatN: cs.ReadLat.Count(), ReadLatSum: cs.ReadLat.Sum(),
		}
		for k := range mem.NumKinds {
			cc.KindReads[k], cc.KindWrites[k] = cs.KindReads[k].Value(), cs.KindWrites[k].Value()
		}
		d.Channels = append(d.Channels, cc)
	}
	b, err := json.Marshal(d)
	if err != nil {
		// Only plain numbers and strings: a marshal failure is a bug.
		panic(err)
	}
	return string(b)
}

// hashOf condenses a sequence of digests into one repetition digest.
func hashOf(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		io.WriteString(h, p)
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// firstPull wraps a trace source and stamps the first Next call, which is
// where set-up ends and simulation begins.
type firstPull struct {
	src trace.Source
	at  *time.Time
}

func (f firstPull) Next() (trace.Record, bool) {
	if f.at.IsZero() {
		*f.at = time.Now()
	}
	return f.src.Next()
}

// wrapFirstPull wraps every source so the earliest Next call of any core
// lands in *at.
func wrapFirstPull(srcs []trace.Source, at *time.Time) []trace.Source {
	out := make([]trace.Source, len(srcs))
	for i, s := range srcs {
		out[i] = firstPull{src: s, at: at}
	}
	return out
}
