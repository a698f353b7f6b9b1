package main

import (
	"encoding/json"
	"testing"
)

func fixture(t *testing.T) *benchFile {
	t.Helper()
	var f benchFile
	if err := json.Unmarshal([]byte(`{
		"mode": "smoke",
		"go_version": "go1.22",
		"cpu": "test-cpu",
		"baseline": {"benchmarks": {
			"BenchmarkTickITESP":   {"ns_per_op": 100, "allocs_per_op": 0},
			"BenchmarkTickBaseline":{"ns_per_op": 200, "allocs_per_op": 2},
			"BenchmarkSteady":      {"ns_per_op": 50},
			"BenchmarkRemoved":     {"ns_per_op": 10},
			"BenchmarkZeroBase":    {"ns_per_op": 0}
		}},
		"current": {"benchmarks": {
			"BenchmarkTickITESP":   {"ns_per_op": 120, "allocs_per_op": 0},
			"BenchmarkTickBaseline":{"ns_per_op": 150, "allocs_per_op": 2},
			"BenchmarkSteady":      {"ns_per_op": 52},
			"BenchmarkZeroBase":    {"ns_per_op": 5},
			"BenchmarkNew":         {"ns_per_op": 33}
		}}
	}`), &f); err != nil {
		t.Fatal(err)
	}
	return &f
}

func TestCompare(t *testing.T) {
	r := compare(fixture(t), 10)
	if r.Mode != "smoke" || r.GoVersion != "go1.22" || r.CPU != "test-cpu" {
		t.Fatalf("header: %+v", r)
	}
	// Three comparable benchmarks (zero-baseline is skipped).
	if len(r.Deltas) != 3 {
		t.Fatalf("deltas: %+v", r.Deltas)
	}
	// Sorted worst-first: +20% regression, then +4%, then -25% improvement.
	if r.Deltas[0].Benchmark != "BenchmarkTickITESP" || !r.Deltas[0].Regression || r.Deltas[0].DeltaPct != 20 {
		t.Fatalf("deltas[0]: %+v", r.Deltas[0])
	}
	if r.Deltas[1].Benchmark != "BenchmarkSteady" || r.Deltas[1].Regression || r.Deltas[1].DeltaPct != 4 {
		t.Fatalf("deltas[1]: %+v", r.Deltas[1])
	}
	if r.Deltas[2].Benchmark != "BenchmarkTickBaseline" || r.Deltas[2].DeltaPct != -25 {
		t.Fatalf("deltas[2]: %+v", r.Deltas[2])
	}
	if r.Regressions != 1 || r.Improvements != 1 {
		t.Fatalf("summary: %+v", r)
	}
	if len(r.OnlyBaseline) != 1 || r.OnlyBaseline[0] != "BenchmarkRemoved" {
		t.Fatalf("only-baseline: %v", r.OnlyBaseline)
	}
	if len(r.OnlyCurrent) != 1 || r.OnlyCurrent[0] != "BenchmarkNew" {
		t.Fatalf("only-current: %v", r.OnlyCurrent)
	}
}

func TestCompareThreshold(t *testing.T) {
	// At a 25% threshold the +20% slowdown is within tolerance and the -25%
	// speedup is not large enough to count as an improvement.
	r := compare(fixture(t), 25)
	if r.Regressions != 0 || r.Improvements != 0 {
		t.Fatalf("summary at 25%%: %+v", r)
	}
	for _, d := range r.Deltas {
		if d.Regression {
			t.Fatalf("unexpected regression: %+v", d)
		}
	}
}

func TestCompareReportRoundTrip(t *testing.T) {
	r := compare(fixture(t), 10)
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Regressions != r.Regressions || len(back.Deltas) != len(r.Deltas) {
		t.Fatalf("round trip: %+v", back)
	}
}

func TestUnknownSectionsTolerated(t *testing.T) {
	// A bench file carrying sections benchcheck predates (here "scaling"
	// plus a hypothetical future key) must parse and compare cleanly; the
	// scaling section is forwarded into the report untouched.
	var f benchFile
	if err := json.Unmarshal([]byte(`{
		"mode": "full",
		"future_section": {"anything": [1, 2, 3]},
		"baseline": {"benchmarks": {"BenchmarkX": {"ns_per_op": 100}}},
		"current":  {"benchmarks": {"BenchmarkX": {"ns_per_op": 90}}},
		"scaling": {"points": [{"parallel": 1, "fig8_wall_s": 3.0}]}
	}`), &f); err != nil {
		t.Fatal(err)
	}
	r := compare(&f, 10)
	if len(r.Deltas) != 1 || r.Regressions != 0 {
		t.Fatalf("compare: %+v", r)
	}
	if len(r.Scaling) == 0 {
		t.Fatal("scaling section was not forwarded into the report")
	}
	var sc struct {
		Points []map[string]float64 `json:"points"`
	}
	if err := json.Unmarshal(r.Scaling, &sc); err != nil || len(sc.Points) != 1 {
		t.Fatalf("forwarded scaling unusable: %v %+v", err, sc)
	}
}
