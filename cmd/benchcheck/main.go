// Command benchcheck compares the "current" benchmark numbers in a
// BENCH_hotloop.json (written by scripts/bench.sh) against the frozen
// "baseline" section and reports per-benchmark deltas, so the performance
// trajectory accumulates machine-checkable data points instead of one-off
// claims. It runs in CI as a non-gating job; locally, -gate turns
// regressions above the threshold into a non-zero exit.
//
// Usage:
//
//	benchcheck -bench-json BENCH_hotloop.json -report bench_delta.json
//	benchcheck -bench-json BENCH_hotloop.json -max-regress 5 -gate
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
)

// benchFile mirrors the scripts/bench.sh output schema.
type benchFile struct {
	GeneratedBy string `json:"generated_by"`
	Mode        string `json:"mode"`
	GoVersion   string `json:"go_version"`
	CPU         string `json:"cpu"`
	Baseline    struct {
		Recorded   string                        `json:"recorded"`
		Benchmarks map[string]map[string]float64 `json:"benchmarks"`
	} `json:"baseline"`
	Current struct {
		Benchmarks map[string]map[string]float64 `json:"benchmarks"`
	} `json:"current"`
	// Scaling is the Fig 8 sweep's wall-clock and runs/sec at -parallel
	// 1..GOMAXPROCS, recorded by scripts/bench.sh.
	// It is forwarded verbatim into the delta report and never judged for
	// regressions: the curve is informational trajectory data. Like any
	// other unknown or future section, its absence — or additional keys
	// benchcheck does not know about — must not fail the report.
	Scaling json.RawMessage `json:"scaling,omitempty"`
}

// Delta is one benchmark's baseline-vs-current comparison. Regression is
// judged on ns_per_op only — allocation metrics are reported for context
// but routinely move with intentional trade-offs.
type Delta struct {
	Benchmark  string  `json:"benchmark"`
	BaseNsOp   float64 `json:"baseline_ns_per_op"`
	CurNsOp    float64 `json:"current_ns_per_op"`
	DeltaPct   float64 `json:"delta_pct"`
	BaseAllocs float64 `json:"baseline_allocs_per_op,omitempty"`
	CurAllocs  float64 `json:"current_allocs_per_op,omitempty"`
	Regression bool    `json:"regression"`
}

// Report is the machine-readable delta report benchcheck emits.
type Report struct {
	Mode          string   `json:"mode"`
	GoVersion     string   `json:"go_version"`
	CPU           string   `json:"cpu"`
	MaxRegressPct float64  `json:"max_regress_pct"`
	Regressions   int      `json:"regressions"`
	Improvements  int      `json:"improvements"`
	Deltas        []Delta  `json:"deltas"`
	OnlyBaseline  []string `json:"only_in_baseline,omitempty"`
	OnlyCurrent   []string `json:"only_in_current,omitempty"`
	// Scaling forwards the bench file's -parallel scaling section
	// (non-gating, informational) into the published artifact.
	Scaling json.RawMessage `json:"scaling,omitempty"`
}

// compare builds the delta report for every benchmark present in both the
// baseline and the current run. maxRegress is the ns/op slowdown threshold
// (percent) above which a delta counts as a regression.
func compare(f *benchFile, maxRegress float64) Report {
	r := Report{Mode: f.Mode, GoVersion: f.GoVersion, CPU: f.CPU, MaxRegressPct: maxRegress, Scaling: f.Scaling}
	for name, base := range f.Baseline.Benchmarks {
		cur, ok := f.Current.Benchmarks[name]
		if !ok {
			r.OnlyBaseline = append(r.OnlyBaseline, name)
			continue
		}
		baseNs, curNs := base["ns_per_op"], cur["ns_per_op"]
		if baseNs <= 0 {
			continue
		}
		d := Delta{
			Benchmark:  name,
			BaseNsOp:   baseNs,
			CurNsOp:    curNs,
			DeltaPct:   100 * (curNs - baseNs) / baseNs,
			BaseAllocs: base["allocs_per_op"],
			CurAllocs:  cur["allocs_per_op"],
		}
		d.Regression = d.DeltaPct > maxRegress
		if d.Regression {
			r.Regressions++
		} else if d.DeltaPct < -maxRegress {
			r.Improvements++
		}
		r.Deltas = append(r.Deltas, d)
	}
	for name := range f.Current.Benchmarks {
		if _, ok := f.Baseline.Benchmarks[name]; !ok {
			r.OnlyCurrent = append(r.OnlyCurrent, name)
		}
	}
	sort.Slice(r.Deltas, func(i, j int) bool { return r.Deltas[i].DeltaPct > r.Deltas[j].DeltaPct })
	sort.Strings(r.OnlyBaseline)
	sort.Strings(r.OnlyCurrent)
	return r
}

// print renders the report as a human-readable table on stdout.
func (r Report) print() {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\tbaseline ns/op\tcurrent ns/op\tdelta\t")
	for _, d := range r.Deltas {
		mark := ""
		if d.Regression {
			mark = "  REGRESSION"
		}
		fmt.Fprintf(tw, "%s\t%.4g\t%.4g\t%+.1f%%%s\t\n", d.Benchmark, d.BaseNsOp, d.CurNsOp, d.DeltaPct, mark)
	}
	tw.Flush()
	if len(r.OnlyCurrent) > 0 {
		fmt.Printf("new since baseline (no comparison): %d benchmarks\n", len(r.OnlyCurrent))
	}
	if len(r.OnlyBaseline) > 0 {
		fmt.Printf("in baseline only (renamed or removed): %v\n", r.OnlyBaseline)
	}
	if len(r.Scaling) > 0 {
		fmt.Println("scaling section present (-parallel curve) — forwarded to the report, not gated")
	}
	if r.Mode == "smoke" {
		fmt.Println("note: smoke mode (-benchtime=1x) — microbenchmark timings are noise; only the Fig 8 number is a full sweep")
	}
	fmt.Printf("%d compared, %d regressions (> %+.0f%% ns/op), %d improvements\n",
		len(r.Deltas), r.Regressions, r.MaxRegressPct, r.Improvements)
}

func main() {
	benchJSON := flag.String("bench-json", "BENCH_hotloop.json", "benchmark file written by scripts/bench.sh (baseline + current sections)")
	reportPath := flag.String("report", "", "also write the machine-readable delta report (JSON) to this file")
	maxRegress := flag.Float64("max-regress", 10, "ns/op slowdown (percent) above which a benchmark counts as a regression")
	gate := flag.Bool("gate", false, "exit non-zero when any benchmark regresses past -max-regress (default: report only)")
	flag.Parse()

	data, err := os.ReadFile(*benchJSON)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(2)
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: %v\n", *benchJSON, err)
		os.Exit(2)
	}
	if len(f.Baseline.Benchmarks) == 0 || len(f.Current.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: %s: missing baseline or current benchmarks\n", *benchJSON)
		os.Exit(2)
	}

	r := compare(&f, *maxRegress)
	r.print()

	if *reportPath != "" {
		out, err := json.MarshalIndent(r, "", "  ")
		if err == nil {
			err = os.WriteFile(*reportPath, append(out, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck: report:", err)
			os.Exit(2)
		}
		fmt.Printf("wrote %s\n", *reportPath)
	}
	if *gate && r.Regressions > 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: FAILED: %d benchmarks regressed more than %.0f%%\n", r.Regressions, *maxRegress)
		os.Exit(1)
	}
}
