package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The shared -update flag (obs_test.go) also re-pins the golden summaries.

// goldenConfigs are the reduced-scale runs whose summaries are pinned in
// testdata. They cover the four scheme families the hot loop specializes
// for (VAULT, Synergy/Morphable, ITESP, isolation), the two post-paper
// backend families with structurally different traffic (SERVAS treeless
// MACs, TME-Box key domains), plus a DDR4 run (3:1 CPU:DRAM clock ratio),
// an LLC-filtered run and a low-MPKI (ep) run, so any change to the tick
// path, token routing, or idle fast-forward that shifts simulated time by
// even one cycle fails the comparison.
func goldenConfigs(t *testing.T) map[string]Config {
	t.Helper()
	spec, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{
		Benchmark:  spec,
		Cores:      2,
		Channels:   1,
		OpsPerCore: 2500,
		Seed:       11,
	}
	cfgs := map[string]Config{}
	for _, s := range []string{"vault", "synergy", "itesp", "syn128iso", "servas", "tmebox"} {
		c := base
		c.SchemeName = s
		cfgs[s] = c
	}
	ddr4 := base
	ddr4.SchemeName = "itesp"
	ddr4.DDR4 = true
	cfgs["itesp+ddr4"] = ddr4
	llc := base
	llc.SchemeName = "vault"
	llc.FilterLLC = true
	llc.LLCMBPerCore = 1
	cfgs["vault+llc"] = llc
	// A low-MPKI run: cores spend long compute gaps only retiring, which
	// the idle fast-forward covers in bulk.
	ep := base
	ep.SchemeName = "itesp"
	ep.Benchmark, err = workload.ByName("ep")
	if err != nil {
		t.Fatal(err)
	}
	cfgs["itesp+ep"] = ep
	return cfgs
}

const goldenPath = "testdata/golden_summaries.json"

// TestGoldenCycleEquivalence asserts that every golden config still produces
// the exact Summary (cycles, per-core cycles, traffic, energy) recorded from
// the straight-line pre-optimization simulator. Run with -update to re-pin.
func TestGoldenCycleEquivalence(t *testing.T) {
	cfgs := goldenConfigs(t)
	got := map[string]*Summary{}
	for name, cfg := range cfgs {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got[name] = res.Summarize()
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	want := map[string]*Summary{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name := range cfgs {
		w, ok := want[name]
		if !ok {
			t.Errorf("%s: no golden entry (run with -update)", name)
			continue
		}
		g := got[name]
		if g.Cycles != w.Cycles {
			t.Errorf("%s: Cycles = %d, golden %d", name, g.Cycles, w.Cycles)
		}
		if !reflect.DeepEqual(g.PerCoreCycles, w.PerCoreCycles) {
			t.Errorf("%s: PerCoreCycles = %v, golden %v", name, g.PerCoreCycles, w.PerCoreCycles)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s: summary diverged from golden\n got: %+v\nwant: %+v", name, g, w)
		}
	}
}

// TestIdleSkipEquivalence runs representative configs twice in-process —
// with every shortcut and as the plain loop (DisableIdleSkip), which calls
// every core's Cycle on every CPU cycle — and requires the full summaries,
// the final DRAM cycle and the per-core CPU counters to match exactly.
// Together with the pinned goldens this proves the optimized loop
// reproduces the pre-optimization simulator cycle for cycle. The low-MPKI
// cases cover the fast-forward through compute gaps, where cores keep
// retiring while the loop skips; one adds a fault campaign (its wakes clamp
// the skip) and one an epoch series (epoch boundaries chunk it). In the
// backpressure-heavy cases (4 cores on one channel, the 8-core mix, an
// LLC-filtered 4-core run) 75-96% of the core-cycles the loop steps take
// the blocked or backpressure-frozen shortcut instead of a Cycle call.
func TestIdleSkipEquivalence(t *testing.T) {
	type skipCase struct {
		name    string
		cfg     Config
		epoch   uint64                // obs.Series interval; 0 = no series
		sources func() []trace.Source // fresh per run when set
	}
	var cases []skipCase
	golden := goldenConfigs(t)
	for _, name := range []string{"itesp", "vault+llc", "syn128iso", "itesp+ep"} {
		cfg, ok := golden[name]
		if !ok {
			t.Fatalf("missing golden config %q", name)
		}
		cases = append(cases, skipCase{name: name, cfg: cfg})
	}
	lowMPKI := func(bench, scheme string, ddr4 bool) Config {
		spec, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		return Config{SchemeName: scheme, Benchmark: spec, Cores: 2, Channels: 1,
			OpsPerCore: 1500, Seed: 5, DDR4: ddr4}
	}
	for _, bench := range []string{"ep", "perlbench"} {
		for _, scheme := range []string{"nonsecure", "itesp"} {
			for _, ddr4 := range []bool{false, true} {
				name := bench + "/" + scheme
				if ddr4 {
					name += "+ddr4"
				}
				cases = append(cases, skipCase{name: name, cfg: lowMPKI(bench, scheme, ddr4)})
			}
		}
	}
	faulted := lowMPKI("ep", "itesp", false)
	faulted.Faults = fault.Config{N: 8, Kind: "chip", Seed: 17,
		StartCycle: 2000, Interval: 40_000, SpanBlocks: 256, ScrubInterval: 300}
	cases = append(cases,
		skipCase{name: "ep/itesp+faults", cfg: faulted},
		skipCase{name: "perlbench/itesp+series", cfg: lowMPKI("perlbench", "itesp", false), epoch: 25_000})

	synergy4 := func(bench string) Config {
		spec, err := workload.ByName(bench)
		if err != nil {
			t.Fatal(err)
		}
		return Config{SchemeName: "synergy", Benchmark: spec, Cores: 4, Channels: 1,
			OpsPerCore: 1500, Seed: 3}
	}
	llcHeavy := synergy4("lbm")
	llcHeavy.FilterLLC, llcHeavy.LLCMBPerCore = true, 1
	mixNames := []string{"lbm", "pr", "is", "cc", "mg", "mcf", "bwaves", "tc"}
	mix := Config{SchemeName: "itesp", Cores: len(mixNames), Channels: 2, OpsPerCore: 1000, Seed: 9,
		Faults: fault.Config{N: 16, Kind: "chip", Seed: 9, Interval: 4000, SpanBlocks: 1024, ScrubInterval: 100}}
	cases = append(cases,
		skipCase{name: "pr/synergy x4", cfg: synergy4("pr")},
		skipCase{name: "lbm/synergy x4+llc", cfg: llcHeavy},
		skipCase{name: "mix8/itesp+faults", cfg: mix, sources: func() []trace.Source {
			srcs, _, err := workload.MixSources(mixNames, 9)
			if err != nil {
				t.Fatal(err)
			}
			return srcs
		}})

	run := func(c skipCase, skip bool) (*Result, *obs.Observer) {
		cfg := c.cfg
		cfg.DisableIdleSkip = !skip
		if c.sources != nil {
			cfg.Sources = c.sources()
		}
		ob := obs.New(obs.Config{Metrics: true, EpochCycles: c.epoch})
		cfg.Obs = ob
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s (skip=%v): %v", c.name, skip, err)
		}
		return res, ob
	}
	// coreCounters picks the per-core CPU counters out of a metrics
	// snapshot: the stall and retirement totals the fast-forward charges
	// arithmetically.
	coreCounters := func(ob *obs.Observer) map[string]float64 {
		m := map[string]float64{}
		for _, s := range ob.Registry.Snapshot().Samples {
			if s.Name == "cpu_stall_cycles_total" || s.Name == "cpu_retired_instructions" {
				m[s.Name+"/core"+s.Labels["core"]] = s.Value
			}
		}
		return m
	}
	for _, c := range cases {
		fast, fob := run(c, true)
		slow, sob := run(c, false)
		fs, ss := fast.Summarize(), slow.Summarize()
		if fs.Cycles != ss.Cycles {
			t.Errorf("%s: Cycles skip=%d noskip=%d", c.name, fs.Cycles, ss.Cycles)
		}
		if !reflect.DeepEqual(fs, ss) {
			t.Errorf("%s: summaries diverge with idle skip\n skip: %+v\nnoskip: %+v", c.name, fs, ss)
		}
		if fn, sn := fast.Memory.Now(), slow.Memory.Now(); fn != sn {
			t.Errorf("%s: final DRAM cycle skip=%d noskip=%d", c.name, fn, sn)
		}
		fc, sc := coreCounters(fob), coreCounters(sob)
		if len(fc) != 2*c.cfg.Cores {
			t.Errorf("%s: %d per-core counters in the snapshot, want %d", c.name, len(fc), 2*c.cfg.Cores)
		}
		if !reflect.DeepEqual(fc, sc) {
			t.Errorf("%s: per-core counters diverge with idle skip\n skip: %v\nnoskip: %v", c.name, fc, sc)
		}
		if c.epoch > 0 {
			var fcsv, scsv bytes.Buffer
			if err := fob.Series.WriteCSV(&fcsv); err != nil {
				t.Fatal(err)
			}
			if err := sob.Series.WriteCSV(&scsv); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(fcsv.Bytes(), scsv.Bytes()) {
				t.Errorf("%s: epoch series diverge with idle skip", c.name)
			}
		}
		if c.cfg.Faults.Enabled() && (fs.Faults == nil || fs.Faults.Injected == 0) {
			t.Errorf("%s: campaign injected no faults: %+v", c.name, fs.Faults)
		}
	}
}
