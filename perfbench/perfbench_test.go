package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
)

// shortCases returns every case of every workload shape at a reduced
// scale.
func shortCases(t *testing.T) []runCase {
	t.Helper()
	cases, err := fig8Cases(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if w.sweep {
			continue
		}
		cs, err := serialCases(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, cs...)
	}
	for i := range cases {
		cases[i].cfg.OpsPerCore = 400
	}
	return cases
}

func TestStepDriverMatchesRunContext(t *testing.T) {
	ctx := context.Background()
	for _, rc := range shortCases(t) {
		var totals layerTotals
		if _, err := tracedCase(ctx, rc, &totals, nil); err != nil {
			t.Errorf("%s (%d cores, %d channels, faults %v): %v",
				rc.key, rc.cfg.Cores, rc.cfg.Channels, rc.cfg.Faults.Enabled(), err)
		}
	}
}

// TestStepDriverCountsEveryCall checks the traced counts against what the
// simulator itself reports: every pulled record is issued exactly once.
func TestStepDriverCountsEveryCall(t *testing.T) {
	rc := shortCases(t)[0]
	var lt layerTimes
	res, _, err := stepDrive(context.Background(), rc.cfg, &lt)
	if err != nil {
		t.Fatal(err)
	}
	ops := res.Engine.Stats.DataOps()
	if lt.nextCalls != ops {
		t.Errorf("Next calls = %d, want %d (one per data op)", lt.nextCalls, ops)
	}
	if lt.accessCalls-lt.rejected != ops {
		t.Errorf("accepted Access calls = %d, want %d", lt.accessCalls-lt.rejected, ops)
	}
	if lt.iters != lt.tickCalls+1 {
		t.Errorf("loop iterations = %d, want Tick calls + 1 = %d", lt.iters, lt.tickCalls+1)
	}
	if lt.blockSamples == 0 || lt.callSamples == 0 {
		t.Errorf("no samples: %d block, %d call", lt.blockSamples, lt.callSamples)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the tests read.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestBenchmarkJSONListsTheWorkloads(t *testing.T) {
	spec := readBenchmarkSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the command %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the command %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

// runCommand runs the command in-process and returns its last-line result.
func runCommand(t *testing.T, args ...string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(context.Background(), args, &out, &errOut); code != 0 {
		t.Fatalf("%v: exit %d\n%s%s", args, code, out.String(), errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("%v: last line is not a result: %v", args, err)
	}
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Fatalf("%v: result %+v", args, res)
	}
	return res
}

func TestEveryMetricIsPrinted(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload once")
	}
	spec := readBenchmarkSpec(t)
	for _, w := range spec.Workloads {
		for mode, want := range map[string][]struct{ Name, Unit string }{"0": spec.EndToEnd, "1": spec.PerLayer} {
			res := runCommand(t, "--workload", w.Name, "--seed", "1", "--seconds", "1", "--trace", mode)
			if len(res.Metrics) != len(want) {
				t.Errorf("%s --trace %s: %d metrics, BENCHMARK.json lists %d", w.Name, mode, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s --trace %s: metric %s missing", w.Name, mode, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s --trace %s: metric %s unit %q, BENCHMARK.json says %q", w.Name, mode, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

func TestSeedChangesInputsNotMetricNames(t *testing.T) {
	ctx := context.Background()
	w, err := lookupWorkload("low-mpki")
	if err != nil {
		t.Fatal(err)
	}
	var digests []string
	var names [][]string
	for _, seed := range []int64{1, 2} {
		cases, err := serialCases(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := range cases {
			cases[i].cfg.OpsPerCore = 400
		}
		r := serialRep(ctx, cases)
		if r.failed != 0 {
			t.Fatalf("seed %d: %v", seed, r.errs)
		}
		digests = append(digests, r.digest)
		m, _, _ := (&timedResult{reps: []rep{r}, kernel: []kernelTime{speedKernel(), speedKernel()}}).metrics()
		var ns []string
		for n := range m {
			ns = append(ns, n)
		}
		slices.Sort(ns)
		names = append(names, ns)
	}
	if digests[0] == digests[1] {
		t.Errorf("seeds 1 and 2 simulated identical inputs (digest %s)", digests[0])
	}
	if !slices.Equal(names[0], names[1]) {
		t.Errorf("metric names differ across seeds: %v vs %v", names[0], names[1])
	}
	if a, b := fig8Options(ctx, 1, nil).Seed, fig8Options(ctx, 2, nil).Seed; a == b {
		t.Errorf("fig8-sweep trace seed %d does not depend on the seed argument", a)
	}
	mix, _ := lookupWorkload("mix8-rw-faults")
	c1, _ := serialCases(mix, 1)
	c2, _ := serialCases(mix, 2)
	if c1[0].cfg.Faults.Seed == c2[0].cfg.Faults.Seed {
		t.Errorf("mix8-rw-faults fault seed does not depend on the seed argument")
	}
}

func TestTailPercentile(t *testing.T) {
	var xs []float64
	for i := 1; i <= 100; i++ {
		xs = append(xs, float64(i))
	}
	if got := tailOf(xs); got.percentile != 90 || got.value != 90 || got.samples != 100 {
		t.Errorf("tail of 1..100 = %+v, want p90 = 90 (ten samples above)", got)
	}
	if got := tailOf(xs[:36]); got.percentile != 72 || got.value != 26 {
		t.Errorf("tail of 1..36 = %+v, want p72 = 26", got)
	}
	if got := tailOf(xs[:5]); got.percentile != 100 || got.value != 5 {
		t.Errorf("tail of 1..5 = %+v, want the maximum", got)
	}
}

// The digest must see a difference in any simulated statistic, not only
// in the summary.
func TestDigestCoversRawCounters(t *testing.T) {
	rc := shortCases(t)[0]
	res, err := sim.Run(rc.cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := digestOf(res)
	res.Memory.ChannelStats(0).Precharges.Inc()
	if digestOf(res) == before {
		t.Error("digest ignores DRAM precharge counts")
	}
}
