package runspec

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func batchJob(key string, seed int64) Named {
	return Named{Key: key, Spec: Spec{
		Scheme: "nonsecure", Benchmark: "lbm", Cores: 1, OpsPerCore: 300, Seed: seed,
	}}
}

// TestBatchRoundTrip: WriteBatch output parses back to the same job list.
func TestBatchRoundTrip(t *testing.T) {
	jobs := []Named{batchJob("a", 1), batchJob("b", 2)}
	var buf bytes.Buffer
	if err := WriteBatch(&buf, jobs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBatch(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Key != "a" || got[1].Spec.Seed != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	h0, _ := jobs[0].Spec.Hash()
	g0, _ := got[0].Spec.Hash()
	if h0 != g0 {
		t.Fatal("round trip must preserve the content hash")
	}
}

// TestBatchValidation: the errors name the offending job.
func TestBatchValidation(t *testing.T) {
	cases := []struct {
		name string
		jobs []Named
		want string
	}{
		{"empty", nil, "no jobs"},
		{"missing key", []Named{{Spec: batchJob("x", 1).Spec}}, "job 0 has no key"},
		{"duplicate key", []Named{batchJob("dup", 1), batchJob("dup", 2)}, `duplicate key "dup"`},
		{"invalid spec", []Named{{Key: "bad", Spec: Spec{Benchmark: "lbm"}}}, "job 0 (bad)"},
	}
	for _, tc := range cases {
		err := ValidateBatch(tc.jobs)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v must contain %q", tc.name, err, tc.want)
		}
	}
}

// TestBatchRejectsUnknownFields: a version-skewed file fails loudly instead
// of being half-understood.
func TestBatchRejectsUnknownFields(t *testing.T) {
	in := `{"jobs":[{"key":"a","spec":{"scheme":"nonsecure","benchmark":"lbm","cores":1}}],"futurefield":1}`
	if _, err := ReadBatch(strings.NewReader(in)); err == nil {
		t.Fatal("unknown top-level field must be rejected")
	}
	// tick_workers is the spec field of the removed channel-parallel DRAM
	// ticking: old batch files that carry it must fail, naming the field.
	for _, field := range []string{"no_such_knob", "tick_workers"} {
		in = `{"jobs":[{"key":"a","spec":{"scheme":"nonsecure","benchmark":"lbm","cores":1,"` + field + `":4}}]}`
		if _, err := ReadBatch(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), field) {
			t.Fatalf("unknown spec field %s: error %v must reject and name it", field, err)
		}
	}
}

// TestSweepID: the identity is order-independent and content-sensitive,
// and an unhashable job never collapses onto a shared placeholder — two
// sweeps that differ only in such a job get different IDs or an error.
func TestSweepID(t *testing.T) {
	a, b := batchJob("a", 1), batchJob("b", 2)
	id1, err := SweepID([]Named{a, b})
	if err != nil {
		t.Fatal(err)
	}
	id2, err := SweepID([]Named{b, a})
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("order changed the sweep ID: %s vs %s", id1, id2)
	}
	if id3, _ := SweepID([]Named{a, batchJob("b", 3)}); id3 == id1 {
		t.Fatal("a different job set must get a different ID")
	}

	nan, inf := batchJob("x", 9), batchJob("x", 9)
	nan.Spec.DataFrac = math.NaN()
	inf.Spec.DataFrac = math.Inf(1)
	idNaN, errNaN := SweepID([]Named{a, nan})
	idInf, errInf := SweepID([]Named{a, inf})
	if errNaN == nil && errInf == nil && idNaN == idInf {
		t.Fatalf("sweeps differing only in an unhashable job share ID %s", idNaN)
	}
	if errNaN == nil || !strings.Contains(errNaN.Error(), "job x") {
		t.Fatalf("unhashable job: error %v must name the job", errNaN)
	}
}
