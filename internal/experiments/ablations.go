package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/runspec"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// AblationRow is one configuration of an ablation sweep.
type AblationRow struct {
	Label    string
	NormTime float64 // geomean over the selected benchmarks, vs non-secure
	Extra    float64 // sweep-specific secondary metric
}

// ablationBenches returns a small representative benchmark set unless the
// caller overrides it: a graph kernel, a pointer chaser, and a stream.
func ablationBenches(o Options) []workload.Spec {
	if o.Benchmarks == nil {
		o.Benchmarks = []string{"pr", "mcf", "lbm"}
	}
	return o.benchList(nil)
}

// geoNorm runs mk's configuration against a non-secure baseline per
// benchmark (one runner batch, so the cache and worker pool apply) and
// returns the geomean normalized time plus the per-benchmark summaries in
// spec order. The core count follows o.Cores (paper default 4), so every
// ablation works at other core counts.
func geoNorm(o Options, specs []workload.Spec, mk func(spec workload.Spec) runspec.Spec) (float64, []*sim.Summary, error) {
	var jobs []runspec.Named
	for _, spec := range specs {
		jobs = append(jobs, runspec.Named{Key: "nonsecure/" + spec.Name, Spec: runspec.Spec{
			Scheme: "nonsecure", Benchmark: spec.Name, Cores: o.cores(4), Channels: 1,
			OpsPerCore: o.ops(), Seed: o.seed(),
		}})
		jobs = append(jobs, runspec.Named{Key: "cfg/" + spec.Name, Spec: mk(spec)})
	}
	raw, err := runBatch(o, jobs)
	if err != nil {
		return 0, nil, err
	}
	var vals []float64
	var results []*sim.Summary
	for _, spec := range specs {
		base := raw["nonsecure/"+spec.Name]
		r := raw["cfg/"+spec.Name]
		if base == nil || r == nil {
			continue
		}
		vals = append(vals, float64(r.Cycles)/float64(base.Cycles))
		results = append(results, r)
	}
	return stats.GeoMean(vals), results, nil
}

// AblationParityShare sweeps the shared-parity degree N (Section III-C):
// larger N shrinks parity storage 1/N but concentrates read-modify-write
// pressure; it also reports the storage overhead each N implies.
func AblationParityShare(o Options) ([]AblationRow, error) {
	specs := ablationBenches(o)
	w := o.writer()
	fmt.Fprintln(w, "Ablation: shared-parity degree N (scheme sharedparity+pc)")
	fmt.Fprintf(w, "%8s %10s %16s\n", "N", "normTime", "parity storage%")
	var rows []AblationRow
	for _, n := range []int{1, 4, 8, 16} {
		n := n
		g, _, err := geoNorm(o, specs, func(spec workload.Spec) runspec.Spec {
			scheme, err := core.SchemeByName("sharedparity+pc", o.cores(4))
			if err != nil {
				panic(err)
			}
			scheme.ParityShare = n
			if n == 1 {
				// Degenerates to the per-block parity cache design.
				scheme.Parity = core.ParityPerBlock
			}
			return runspec.Spec{SchemeOverride: &scheme, Benchmark: spec.Name,
				Cores: o.cores(4), Channels: 1, OpsPerCore: o.ops(), Seed: o.seed()}
		})
		if err != nil {
			return nil, err
		}
		storage := 12.5 / float64(n)
		rows = append(rows, AblationRow{Label: fmt.Sprintf("N=%d", n), NormTime: g, Extra: storage})
		fmt.Fprintf(w, "%8d %10.3f %16.2f\n", n, g, storage)
	}
	return rows, nil
}

// AblationITESPLeaf compares the two Figure 6 leaf organizations: 32x8-bit
// counters + 2 parities (itesp) vs 32x4-bit + 4 parities (itesp4p), each
// under its matched mapping policy.
func AblationITESPLeaf(o Options) ([]AblationRow, error) {
	specs := ablationBenches(o)
	w := o.writer()
	fmt.Fprintln(w, "Ablation: ITESP leaf organization (Fig 6)")
	fmt.Fprintf(w, "%-28s %10s %12s\n", "leaf", "normTime", "rowHitRate")
	var rows []AblationRow
	for _, cfg := range []struct{ scheme, label string }{
		{"itesp", "32x8b ctr + 2 parities"},
		{"itesp4p", "32x4b ctr + 4 parities"},
	} {
		cfg := cfg
		g, rs, err := geoNorm(o, specs, func(spec workload.Spec) runspec.Spec {
			return runspec.Spec{Scheme: cfg.scheme, Benchmark: spec.Name, Cores: o.cores(4),
				Channels: 1, OpsPerCore: o.ops(), Seed: o.seed()}
		})
		if err != nil {
			return nil, err
		}
		var rh []float64
		for _, r := range rs {
			rh = append(rh, r.RowHitRate)
		}
		row := AblationRow{Label: cfg.label, NormTime: g, Extra: stats.ArithMean(rh)}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-28s %10.3f %12.3f\n", row.Label, row.NormTime, row.Extra)
	}
	return rows, nil
}

// AblationStrictVerify quantifies the value of speculative verification
// (PoisonIvy-style) that every baseline in the paper assumes: with strict
// verification, a read's data is not released until its whole metadata walk
// returns.
func AblationStrictVerify(o Options) ([]AblationRow, error) {
	specs := ablationBenches(o)
	w := o.writer()
	fmt.Fprintln(w, "Ablation: speculative vs strict verification (scheme itesp)")
	fmt.Fprintf(w, "%-14s %10s\n", "mode", "normTime")
	var rows []AblationRow
	for _, strict := range []bool{false, true} {
		strict := strict
		g, _, err := geoNorm(o, specs, func(spec workload.Spec) runspec.Spec {
			return runspec.Spec{Scheme: "itesp", Benchmark: spec.Name, Cores: o.cores(4),
				Channels: 1, OpsPerCore: o.ops(), Seed: o.seed(), StrictVerify: strict}
		})
		if err != nil {
			return nil, err
		}
		label := "speculative"
		if strict {
			label = "strict"
		}
		rows = append(rows, AblationRow{Label: label, NormTime: g})
		fmt.Fprintf(w, "%-14s %10.3f\n", label, g)
	}
	return rows, nil
}

// AblationIsolationParts separates the two components of the isolation
// technique: tree isolation (per-enclave trees) and metadata-cache
// partitioning. The paper observes "most of the benefit was because of tree
// isolation", with partitioning vital for leakage but minor for hit rates.
func AblationIsolationParts(o Options) ([]AblationRow, error) {
	specs := ablationBenches(o)
	w := o.writer()
	fmt.Fprintln(w, "Ablation: isolation components (Synergy base)")
	fmt.Fprintf(w, "%-26s %10s\n", "configuration", "normTime")
	var rows []AblationRow
	for _, cfg := range []struct {
		label    string
		scheme   string
		override func(*core.Scheme)
	}{
		{"shared tree, shared $", "synergy", nil},
		{"isolated tree, shared $", "itsynergy", func(s *core.Scheme) { s.UnpartitionedCache = true }},
		{"isolated tree + part. $", "itsynergy", nil},
	} {
		cfg := cfg
		g, _, err := geoNorm(o, specs, func(spec workload.Spec) runspec.Spec {
			scheme, err := core.SchemeByName(cfg.scheme, o.cores(4))
			if err != nil {
				panic(err)
			}
			if cfg.override != nil {
				cfg.override(&scheme)
			}
			return runspec.Spec{SchemeOverride: &scheme, Benchmark: spec.Name,
				Cores: o.cores(4), Channels: 1, OpsPerCore: o.ops(), Seed: o.seed()}
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{Label: cfg.label, NormTime: g})
		fmt.Fprintf(w, "%-26s %10.3f\n", cfg.label, g)
	}
	return rows, nil
}

// Ablations runs every ablation study in sequence.
func Ablations(o Options) error {
	w := o.writer()
	if _, err := AblationParityShare(o); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if _, err := AblationITESPLeaf(o); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if _, err := AblationStrictVerify(o); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if _, err := AblationIsolationParts(o); err != nil {
		return err
	}
	return nil
}
