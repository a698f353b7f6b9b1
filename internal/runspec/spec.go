package runspec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Spec is a fully serializable run description. The zero value of every
// optional field means "the simulator's documented default", and Normalized
// folds defaults so equivalent specs hash identically. Fields marked
// omitempty stay out of the canonical JSON at their zero value, which keeps
// existing hashes stable when new knobs are added later.
type Spec struct {
	// Scheme names the secure-memory scheme (core.SchemeNames); ignored
	// when SchemeOverride is set.
	Scheme string `json:"scheme,omitempty"`
	// Benchmark names a workload registry entry (workload.ByName).
	Benchmark string `json:"benchmark"`
	// Cores is the number of cores / enclaves / program copies.
	Cores int `json:"cores"`
	// Channels is the number of DDR channels (default 1).
	Channels int `json:"channels,omitempty"`
	// Policy selects the address-mapping policy; empty means the scheme's
	// best default.
	Policy string `json:"policy,omitempty"`
	// OpsPerCore is the number of memory operations per core (default
	// 100k); WarmupOps per core run before stats collection.
	OpsPerCore uint64 `json:"ops_per_core,omitempty"`
	WarmupOps  uint64 `json:"warmup_ops,omitempty"`
	// Seed diversifies the per-core generators.
	Seed int64 `json:"seed,omitempty"`
	// DataFrac is the data region's fraction of DRAM capacity (default
	// 0.75).
	DataFrac float64 `json:"data_frac,omitempty"`
	// MetaKBPerCore scales the on-chip cache budget (default 16).
	MetaKBPerCore int `json:"meta_kb_per_core,omitempty"`
	// DenseAlloc, DDR4, FilterLLC, LLCMBPerCore, StrictVerify mirror the
	// sim.Config fields of the same names.
	DenseAlloc   bool `json:"dense_alloc,omitempty"`
	DDR4         bool `json:"ddr4,omitempty"`
	FilterLLC    bool `json:"filter_llc,omitempty"`
	LLCMBPerCore int  `json:"llc_mb_per_core,omitempty"`
	StrictVerify bool `json:"strict_verify,omitempty"`
	// ROBSize / RetireWidth override the Table III core pipeline; zero (or
	// either non-positive) keeps the defaults.
	ROBSize     int `json:"rob_size,omitempty"`
	RetireWidth int `json:"retire_width,omitempty"`
	// SchemeOverride carries an explicit scheme instead of a name — the
	// ablation studies tweak individual scheme knobs this way.
	SchemeOverride *core.Scheme `json:"scheme_override,omitempty"`
	// Faults configures the deterministic fault-injection campaign; nil
	// (or a disabled config) means no faults, and stays out of the
	// canonical JSON so pre-campaign hashes remain stable.
	Faults *fault.Config `json:"faults,omitempty"`
}

// Normalized returns a copy with the simulator's defaulting rules applied,
// so that every spec describing the same run hashes identically: an unset
// knob and an explicitly-set default value are the same run.
func (s Spec) Normalized() Spec {
	n := s
	if n.SchemeOverride != nil {
		n.Scheme = ""
	}
	if n.Channels == 0 {
		n.Channels = 1
	}
	if n.OpsPerCore == 0 {
		n.OpsPerCore = 100_000
	}
	if n.DataFrac == 0 {
		n.DataFrac = 0.75
	}
	if n.MetaKBPerCore == 16 {
		n.MetaKBPerCore = 0 // 16 KB per core is the paper default
	}
	if !n.FilterLLC {
		n.LLCMBPerCore = 0 // meaningless without the LLC filter
	} else if n.LLCMBPerCore <= 0 {
		n.LLCMBPerCore = 2
	}
	def := cpu.DefaultConfig()
	if n.ROBSize <= 0 || n.RetireWidth <= 0 ||
		(n.ROBSize == def.ROBSize && n.RetireWidth == def.Width) {
		n.ROBSize, n.RetireWidth = 0, 0
	}
	if n.Faults != nil {
		if f := n.Faults.Normalized(); f.Enabled() {
			n.Faults = &f
		} else {
			n.Faults = nil
		}
	}
	return n
}

// Canonical returns the canonical JSON encoding of the normalized spec:
// object keys are sorted (the encoding survives struct-field reordering)
// and zero-valued optional knobs are omitted.
func (s Spec) Canonical() ([]byte, error) {
	raw, err := json.Marshal(s.Normalized())
	if err != nil {
		return nil, fmt.Errorf("runspec: %w", err)
	}
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		return nil, fmt.Errorf("runspec: %w", err)
	}
	out, err := json.Marshal(v) // map marshaling sorts keys
	if err != nil {
		return nil, fmt.Errorf("runspec: %w", err)
	}
	return out, nil
}

// Hash returns the spec's content address: the hex SHA-256 of its canonical
// encoding. Two specs hash equal iff they describe the same simulation.
func (s Spec) Hash() (string, error) {
	c, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(c)
	return hex.EncodeToString(sum[:]), nil
}

// Validate checks that the spec is complete and resolvable without building
// the full simulation.
func (s Spec) Validate() error {
	if s.Benchmark == "" {
		return fmt.Errorf("runspec: benchmark is required")
	}
	if _, err := workload.ByName(s.Benchmark); err != nil {
		return fmt.Errorf("runspec: %w", err)
	}
	if s.Cores <= 0 {
		return fmt.Errorf("runspec: cores must be positive")
	}
	if s.Scheme == "" && s.SchemeOverride == nil {
		return fmt.Errorf("runspec: scheme is required")
	}
	if s.Scheme != "" && s.SchemeOverride == nil {
		if _, err := core.SchemeByName(s.Scheme, s.Cores); err != nil {
			return fmt.Errorf("runspec: %w", err)
		}
	}
	if s.Faults != nil {
		if err := s.Faults.Validate(); err != nil {
			return fmt.Errorf("runspec: %w", err)
		}
	}
	return nil
}

// SimConfig resolves the spec into a runnable sim.Config.
func (s Spec) SimConfig() (sim.Config, error) {
	if err := s.Validate(); err != nil {
		return sim.Config{}, err
	}
	bench, err := workload.ByName(s.Benchmark)
	if err != nil {
		return sim.Config{}, fmt.Errorf("runspec: %w", err)
	}
	return sim.Config{
		SchemeName:    s.Scheme,
		Benchmark:     bench,
		Cores:         s.Cores,
		Channels:      s.Channels,
		PolicyName:    s.Policy,
		OpsPerCore:    s.OpsPerCore,
		WarmupOps:     s.WarmupOps,
		Seed:          s.Seed,
		DataFrac:      s.DataFrac,
		MetaKBPerCore: s.MetaKBPerCore,
		DenseAlloc:    s.DenseAlloc,
		DDR4:          s.DDR4,
		FilterLLC:     s.FilterLLC,
		LLCMBPerCore:  s.LLCMBPerCore,
		StrictVerify:  s.StrictVerify,
		CPU:           cpu.Config{ROBSize: s.ROBSize, Width: s.RetireWidth},
		Scheme:        s.SchemeOverride,
		Faults:        faultsOf(s.Faults),
	}, nil
}

// faultsOf unwraps the optional campaign config.
func faultsOf(f *fault.Config) fault.Config {
	if f == nil {
		return fault.Config{}
	}
	return *f
}

// FromSimConfig captures a sim.Config as a spec. Configs with explicit
// trace sources are rejected: their input lives outside the spec, so no
// content hash can name the run. The Obs hook is ignored — observation is
// read-only and does not change simulated results.
func FromSimConfig(cfg sim.Config) (Spec, error) {
	if cfg.Sources != nil {
		return Spec{}, fmt.Errorf("runspec: explicit trace sources are not content-addressable")
	}
	if cfg.Benchmark.Name == "" {
		return Spec{}, fmt.Errorf("runspec: benchmark is required")
	}
	reg, err := workload.ByName(cfg.Benchmark.Name)
	if err != nil {
		return Spec{}, fmt.Errorf("runspec: benchmark %q is not in the workload registry: %w", cfg.Benchmark.Name, err)
	}
	if reg != cfg.Benchmark {
		return Spec{}, fmt.Errorf("runspec: benchmark %q differs from its registry entry", cfg.Benchmark.Name)
	}
	var faults *fault.Config
	if cfg.Faults.Enabled() {
		f := cfg.Faults
		faults = &f
	}
	return Spec{
		Scheme:         cfg.SchemeName,
		Benchmark:      cfg.Benchmark.Name,
		Cores:          cfg.Cores,
		Channels:       cfg.Channels,
		Policy:         cfg.PolicyName,
		OpsPerCore:     cfg.OpsPerCore,
		WarmupOps:      cfg.WarmupOps,
		Seed:           cfg.Seed,
		DataFrac:       cfg.DataFrac,
		MetaKBPerCore:  cfg.MetaKBPerCore,
		DenseAlloc:     cfg.DenseAlloc,
		DDR4:           cfg.DDR4,
		FilterLLC:      cfg.FilterLLC,
		LLCMBPerCore:   cfg.LLCMBPerCore,
		StrictVerify:   cfg.StrictVerify,
		ROBSize:        cfg.CPU.ROBSize,
		RetireWidth:    cfg.CPU.Width,
		SchemeOverride: cfg.Scheme,
		Faults:         faults,
	}, nil
}
