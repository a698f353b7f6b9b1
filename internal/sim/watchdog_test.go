package sim

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

func TestWatchdogDrainConvergence(t *testing.T) {
	var w drainWatchdog
	// Progress resets the budget.
	if err := w.observe(false, drainLimit, true, 0, 0); err != nil {
		t.Fatalf("within budget: %v", err)
	}
	if err := w.observe(true, 1, true, 0, 0); err != nil {
		t.Fatal(err)
	}
	if w.idle != 0 {
		t.Fatal("progress must reset the idle count")
	}
	// One cycle past the drain budget fails with the drain error.
	if err := w.observe(false, drainLimit, true, 0, 0); err != nil {
		t.Fatalf("at budget: %v", err)
	}
	err := w.observe(false, 1, true, 123, 0)
	if err == nil || !strings.Contains(err.Error(), "drain did not converge") {
		t.Fatalf("want drain-convergence error, got %v", err)
	}
	if !errors.Is(err, ErrDrainStall) {
		t.Fatalf("drain stall must be typed ErrDrainStall, got %v", err)
	}
	if errors.Is(err, ErrDeadlock) {
		t.Fatalf("drain stall must not classify as deadlock: %v", err)
	}
}

func TestWatchdogDeadlock(t *testing.T) {
	var w drainWatchdog
	// The deadlock budget is larger than the drain budget and reports the
	// stuck cycle and pending count.
	if err := w.observe(false, deadlockLimit, false, 0, 0); err != nil {
		t.Fatalf("at budget: %v", err)
	}
	err := w.observe(false, 1, false, 42, 7)
	if err == nil || !strings.Contains(err.Error(), "deadlock at cycle 42 (pending=7)") {
		t.Fatalf("want deadlock error, got %v", err)
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("deadlock must be typed ErrDeadlock, got %v", err)
	}
	if errors.Is(err, ErrDrainStall) {
		t.Fatalf("deadlock must not classify as drain stall: %v", err)
	}
}

// TestWatchdogCountsSimulatedCycles is the fast-forward regression: a bulk
// skip of N cycles must consume exactly N cycles of budget, the same as N
// tick-by-tick observations.
func TestWatchdogCountsSimulatedCycles(t *testing.T) {
	var bulk, stepped drainWatchdog
	if err := bulk.observe(false, 1_500_000, true, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1_500_000; i++ {
		if err := stepped.observe(false, 1, true, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if bulk.idle != stepped.idle {
		t.Fatalf("bulk idle %d != stepped idle %d", bulk.idle, stepped.idle)
	}
	// Both trip on the same additional cycle count.
	if err := bulk.observe(false, drainLimit-1_500_000, true, 0, 0); err != nil {
		t.Fatalf("bulk at limit: %v", err)
	}
	if err := bulk.observe(false, 1, true, 0, 0); err == nil {
		t.Fatal("bulk watchdog did not trip past the limit")
	}
}

// TestWatchdogCountsRetirementInSkips is the compute-gap regression: a
// core retiring a long gap makes progress every cycle, so a fast-forward
// chunk in which it retires must reset the deadlock budget exactly as the
// straight-line loop does. Each gap below lasts 62 500 DRAM cycles; the
// shrunken budget is also below the spacing of the staggered per-rank
// refreshes (~780 DRAM cycles on DDR3), which bounds each skip here.
func TestWatchdogCountsRetirementInSkips(t *testing.T) {
	old := deadlockLimit
	deadlockLimit = 400
	defer func() { deadlockLimit = old }()

	var cycles [2]uint64
	for i, noSkip := range []bool{false, true} {
		recs := make([]trace.Record, 3)
		for j := range recs {
			recs[j] = trace.Record{Gap: 1_000_000, Type: mem.Read, VAddr: mem.VirtAddr(j * 4096)}
		}
		cfg := quick("nonsecure", "lbm")
		cfg.Cores = 1
		cfg.OpsPerCore = uint64(len(recs))
		cfg.Sources = []trace.Source{trace.NewSliceSource(recs)}
		cfg.DisableIdleSkip = noSkip
		r, err := Run(cfg)
		if err != nil {
			t.Fatalf("DisableIdleSkip=%v: %v", noSkip, err)
		}
		cycles[i] = r.Cycles
	}
	if cycles[0] != cycles[1] {
		t.Fatalf("cycles skip=%d noskip=%d", cycles[0], cycles[1])
	}
}
