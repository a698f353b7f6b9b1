package sim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
	"repro/internal/workload"
)

// quick returns a small fast config.
func quick(scheme, bench string) Config {
	spec, err := workload.ByName(bench)
	if err != nil {
		panic(err)
	}
	return Config{
		SchemeName: scheme,
		Benchmark:  spec,
		Cores:      2,
		Channels:   1,
		OpsPerCore: 2000,
		Seed:       7,
	}
}

func TestRunCompletes(t *testing.T) {
	r, err := Run(quick("nonsecure", "lbm"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles == 0 {
		t.Fatal("zero execution time")
	}
	if len(r.PerCoreCycles) != 2 {
		t.Fatalf("per-core cycles = %d entries, want 2", len(r.PerCoreCycles))
	}
	for i, c := range r.PerCoreCycles {
		if c == 0 || c > r.Cycles {
			t.Fatalf("core %d finish %d inconsistent with total %d", i, c, r.Cycles)
		}
	}
	if r.Engine.Stats.DataOps() != 2*2000 {
		t.Fatalf("data ops = %d, want 4000", r.Engine.Stats.DataOps())
	}
}

func TestSecureSlowerThanNonSecure(t *testing.T) {
	base, err := Run(quick("nonsecure", "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"vault", "synergy", "itesp"} {
		sec, err := Run(quick(s, "mcf"))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if sec.Cycles <= base.Cycles {
			t.Errorf("%s (%d cycles) not slower than non-secure (%d)", s, sec.Cycles, base.Cycles)
		}
		if sec.MetaPerOp() <= 0 {
			t.Errorf("%s reports no metadata traffic", s)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, err := Run(quick("itesp", "pr"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(quick("itesp", "pr"))
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Fatalf("identical configs diverged: %d vs %d cycles", a.Cycles, b.Cycles)
	}
	if a.MemoryJoules != b.MemoryJoules {
		t.Fatal("energy diverged")
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	cfg := quick("synergy", "pr")
	a, _ := Run(cfg)
	cfg.Seed = 99
	b, _ := Run(cfg)
	if a.Cycles == b.Cycles {
		t.Fatal("different seeds should perturb execution time")
	}
}

func TestIsolationHelpsInterferingWorkload(t *testing.T) {
	// With 4 copies of a reuse-heavy workload, isolated trees must beat
	// the shared tree (the paper's central isolation result).
	mk := func(scheme string) uint64 {
		spec, _ := workload.ByName("pr")
		r, err := Run(Config{SchemeName: scheme, Benchmark: spec, Cores: 4,
			Channels: 1, OpsPerCore: 5000, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return r.Cycles
	}
	shared := mk("synergy")
	isolated := mk("itsynergy")
	if isolated >= shared {
		t.Fatalf("isolation did not help: shared=%d isolated=%d", shared, isolated)
	}
}

func TestExplicitSources(t *testing.T) {
	recs := make([]trace.Record, 500)
	for i := range recs {
		recs[i] = trace.Record{Gap: 2, Type: mem.Read, VAddr: mem.VirtAddr(i * 64)}
	}
	cfg := quick("nonsecure", "lbm")
	cfg.Cores = 1
	cfg.OpsPerCore = 500
	cfg.Sources = []trace.Source{trace.NewSliceSource(recs)}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Engine.Stats.DataReads.Value() != 500 {
		t.Fatalf("reads = %d, want 500", r.Engine.Stats.DataReads.Value())
	}
}

func TestStrictVerifySlower(t *testing.T) {
	cfg := quick("vault", "mcf")
	fast, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.StrictVerify = true
	slow, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Cycles <= fast.Cycles {
		t.Fatalf("strict verification (%d) should be slower than speculative (%d)", slow.Cycles, fast.Cycles)
	}
}

func TestMetaCacheSizeSensitivity(t *testing.T) {
	cfg := quick("synergy", "pr")
	cfg.Cores = 2
	small, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MetaKBPerCore = 64
	big, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if big.MetaCacheHitRate() <= small.MetaCacheHitRate() {
		t.Fatalf("4x metadata cache did not improve hit rate: %.3f vs %.3f",
			big.MetaCacheHitRate(), small.MetaCacheHitRate())
	}
}

func TestPolicyOverride(t *testing.T) {
	cfg := quick("itesp", "lbm")
	cfg.PolicyName = "column"
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Config.PolicyName != "column" {
		t.Fatal("policy override ignored")
	}
	// ITESP defaults to its matched policy when unset.
	cfg.PolicyName = ""
	r2, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Config.PolicyName != "rbh2" {
		t.Fatalf("itesp default policy = %q, want rbh2 (2 parities/leaf)", r2.Config.PolicyName)
	}
}

func TestBadConfigErrors(t *testing.T) {
	if _, err := Run(Config{SchemeName: "nope", Benchmark: workload.Specs()[0], Cores: 1}); err == nil {
		t.Fatal("unknown scheme should error")
	}
	if _, err := Run(Config{SchemeName: "itesp", Benchmark: workload.Specs()[0], Cores: 0}); err == nil {
		t.Fatal("zero cores should error")
	}
	cfg := quick("itesp", "lbm")
	cfg.PolicyName = "nope"
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown policy should error")
	}
}

func TestEnergyPopulated(t *testing.T) {
	r, err := Run(quick("synergy", "lbm"))
	if err != nil {
		t.Fatal(err)
	}
	if r.MemoryJoules <= 0 || r.SystemEDP <= 0 {
		t.Fatalf("energy %.4g / EDP %.4g not populated", r.MemoryJoules, r.SystemEDP)
	}
}

func TestEightCoreTwoChannel(t *testing.T) {
	spec, _ := workload.ByName("lbm")
	r, err := Run(Config{SchemeName: "itesp64", Benchmark: spec, Cores: 8,
		Channels: 2, OpsPerCore: 1500, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PerCoreCycles) != 8 {
		t.Fatalf("per-core entries = %d, want 8", len(r.PerCoreCycles))
	}
	// Both channels should see traffic.
	for c := 0; c < 2; c++ {
		if r.Memory.ChannelStats(c).Reads.Value() == 0 {
			t.Fatalf("channel %d saw no reads", c)
		}
	}
}

// TestTickWorkersStub pins the deprecated TickWorkers stub: 1 runs
// serially with results identical to 0, and anything larger is an error.
func TestTickWorkersStub(t *testing.T) {
	cfg := quick("itesp", "mcf")
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TickWorkers = 1
	got, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles {
		t.Fatalf("TickWorkers=1 changed cycles: %d vs %d", got.Cycles, want.Cycles)
	}
	cfg.TickWorkers = 2
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "TickWorkers") {
		t.Fatalf("TickWorkers=2: err = %v, want an error naming the field", err)
	}
}

func TestOverflowPenaltyIncluded(t *testing.T) {
	spec, _ := workload.ByName("lbm") // write-heavy: overflows with 2-bit locals
	r, err := Run(Config{SchemeName: "itesp128", Benchmark: spec, Cores: 2,
		Channels: 1, OpsPerCore: 5000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if r.Overflows == 0 {
		t.Skip("no overflows at this scale")
	}
	var maxCore uint64
	for _, c := range r.PerCoreCycles {
		if c > maxCore {
			maxCore = c
		}
	}
	if r.Cycles <= maxCore {
		t.Fatal("overflow penalty not added to execution time")
	}
}

func TestMixedWorkloads(t *testing.T) {
	srcs, specs, err := workload.MixSources([]string{"mcf", "lbm"}, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := quick("itesp", "mcf")
	cfg.Sources = srcs
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Engine.Stats.DataOps() != 2*cfg.OpsPerCore {
		t.Fatalf("ops = %d, want %d", r.Engine.Stats.DataOps(), 2*cfg.OpsPerCore)
	}
	if workload.MixIntensity(specs) != 30 {
		t.Fatal("spec bookkeeping broken")
	}
}

func TestFilterLLCMode(t *testing.T) {
	cfg := quick("synergy", "pr")
	cfg.FilterLLC = true
	cfg.LLCMBPerCore = 1
	// Dirty evictions only start once the 1 MB LLC (16K lines) fills, so
	// run enough post-LLC operations to get past the cold phase.
	cfg.Cores = 1
	cfg.OpsPerCore = 25_000
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Write-backs must emerge from dirty evictions.
	if r.Engine.Stats.DataWrites.Value() == 0 {
		t.Fatal("no emergent writebacks through the LLC filter")
	}
	if r.Engine.Stats.DataOps() != cfg.OpsPerCore {
		t.Fatalf("ops = %d, want %d", r.Engine.Stats.DataOps(), cfg.OpsPerCore)
	}
}

func TestDDR4Mode(t *testing.T) {
	cfg := quick("itesp", "lbm")
	ddr3, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DDR4 = true
	ddr4, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if ddr4.Cycles == 0 || ddr4.Cycles == ddr3.Cycles {
		t.Fatal("DDR4 timing should change execution time")
	}
	// Higher bandwidth and a lower CPU:bus ratio should not be slower in
	// CPU cycles for a bandwidth-bound stream.
	if ddr4.Cycles > ddr3.Cycles {
		t.Fatalf("DDR4 (%d cycles) slower than DDR3 (%d)", ddr4.Cycles, ddr3.Cycles)
	}
}

func TestMEESchemeDeepTree(t *testing.T) {
	mee, err := Run(quick("mee", "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	vault, err := Run(quick("vault", "mcf"))
	if err != nil {
		t.Fatal(err)
	}
	// The 8-ary MEE tree is deeper than VAULT's, so it must generate more
	// tree traffic (the motivation for VAULT, Section II-B).
	if mee.MetaPerOp() <= vault.MetaPerOp() {
		t.Fatalf("MEE metadata/op %.2f should exceed VAULT's %.2f", mee.MetaPerOp(), vault.MetaPerOp())
	}
}

// TestSourcesMustMatchCores: explicit trace sources need one non-nil
// source per core; anything else is a config error, not a panic.
func TestSourcesMustMatchCores(t *testing.T) {
	src := func() trace.Source { return trace.NewSliceSource(make([]trace.Record, 10)) }
	for name, srcs := range map[string][]trace.Source{
		"short": {src()},
		"long":  {src(), src(), src()},
		"empty": {},
		"nil":   {src(), nil},
	} {
		cfg := quick("nonsecure", "lbm")
		cfg.Sources = srcs
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "trace source") {
			t.Errorf("%s: %d sources for %d cores: want a trace-source error, got %v", name, len(srcs), cfg.Cores, err)
		}
	}
}

// TestWarmupOpsAddToTarget pins what WarmupOps does today: the ops are
// added to each core's target and no statistic is reset, so the run equals
// one with OpsPerCore+WarmupOps. A real warm-up (stats reset after the
// warm-up ops) must be a deliberate change that updates this test.
func TestWarmupOpsAddToTarget(t *testing.T) {
	warm := quick("itesp", "mcf")
	warm.OpsPerCore = 1500
	warm.WarmupOps = 500
	plain := warm
	plain.OpsPerCore = 2000
	plain.WarmupOps = 0
	a, err := Run(warm)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Errorf("Cycles: warm-up %d, plain %d", a.Cycles, b.Cycles)
	}
	if as, bs := a.Summarize(), b.Summarize(); !reflect.DeepEqual(as, bs) {
		t.Errorf("summaries differ\nwarm-up: %+v\n  plain: %+v", as, bs)
	}
	if !reflect.DeepEqual(a.Engine.Stats, b.Engine.Stats) {
		t.Errorf("engine stats differ\nwarm-up: %+v\n  plain: %+v", a.Engine.Stats, b.Engine.Stats)
	}
	if a.Memory.Now() != b.Memory.Now() {
		t.Errorf("DRAM cycle: warm-up %d, plain %d", a.Memory.Now(), b.Memory.Now())
	}
	for c := 0; c < a.Memory.Config().Geom.Channels; c++ {
		if as, bs := a.Memory.ChannelStats(c), b.Memory.ChannelStats(c); !reflect.DeepEqual(as, bs) {
			t.Errorf("channel %d DRAM stats differ\nwarm-up: %+v\n  plain: %+v", c, as, bs)
		}
	}
}
