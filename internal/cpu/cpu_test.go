package cpu

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

// fakeMemory completes reads a fixed latency after issue.
type fakeMemory struct {
	latency   uint64
	nextToken uint64
	inflight  map[uint64]uint64 // token -> completion cycle
	reject    bool
	issued    []trace.Record
}

func newFakeMemory(latency uint64) *fakeMemory {
	return &fakeMemory{latency: latency, inflight: map[uint64]uint64{}}
}

func (f *fakeMemory) issue(now uint64) IssueFunc {
	return func(core int, rec trace.Record) (uint64, bool, error) {
		if f.reject {
			return 0, false, nil
		}
		f.issued = append(f.issued, rec)
		if rec.Type == mem.Write {
			return 0, true, nil
		}
		f.nextToken++
		f.inflight[f.nextToken] = now + f.latency
		return f.nextToken, true, nil
	}
}

func (f *fakeMemory) deliver(now uint64, c *Core) {
	for tok, done := range f.inflight {
		if done <= now {
			c.OnComplete(tok)
			delete(f.inflight, tok)
		}
	}
}

func run(t *testing.T, c *Core, f *fakeMemory, maxCycles uint64) uint64 {
	t.Helper()
	for now := uint64(1); now <= maxCycles; now++ {
		f.deliver(now, c)
		if _, err := c.Cycle(now, f.issue(now)); err != nil {
			t.Fatal(err)
		}
		if c.Done() {
			return now
		}
	}
	t.Fatalf("core not done after %d cycles (issued=%d)", maxCycles, c.OpsIssued())
	return 0
}

func recs(n int, gap uint32, typ mem.AccessType) []trace.Record {
	out := make([]trace.Record, n)
	for i := range out {
		out[i] = trace.Record{Gap: gap, Type: typ, VAddr: mem.VirtAddr(i * 64)}
	}
	return out
}

func TestComputeBoundRetirement(t *testing.T) {
	// 10 ops, 400-instruction gaps, instant memory: time is dominated by
	// retiring ~4000 instructions at width 4 = ~1000 cycles.
	src := trace.NewSliceSource(recs(10, 400, mem.Read))
	c := NewCore(0, DefaultConfig(), src, 10)
	f := newFakeMemory(1)
	finish := run(t, c, f, 10_000)
	if finish < 900 || finish > 1200 {
		t.Fatalf("finish = %d, want ~1000 (compute bound)", finish)
	}
}

func TestMemoryBoundStalls(t *testing.T) {
	// Zero gaps, 100-cycle memory: each read blocks the ROB head; with
	// ROB 64 and all ops independent, ~64 overlap.
	src := trace.NewSliceSource(recs(64, 0, mem.Read))
	c := NewCore(0, DefaultConfig(), src, 64)
	f := newFakeMemory(100)
	finish := run(t, c, f, 10_000)
	// All 64 fit in the ROB: ~one latency total, not 64x.
	if finish > 300 {
		t.Fatalf("finish = %d; reads did not overlap (MLP broken)", finish)
	}
	if c.StallCycles.Value() == 0 {
		t.Fatal("memory-bound run should record stalls")
	}
}

func TestMLPBoundedByROB(t *testing.T) {
	// 200 zero-gap reads with ROB 8: at most 8 overlap, so time is about
	// (200/8) * latency.
	src := trace.NewSliceSource(recs(200, 0, mem.Read))
	c := NewCore(0, Config{ROBSize: 8, Width: 4}, src, 200)
	f := newFakeMemory(50)
	finish := run(t, c, f, 100_000)
	ideal := uint64(200 / 8 * 50)
	if finish < ideal {
		t.Fatalf("finish %d beats the ROB-limited ideal %d", finish, ideal)
	}
	if finish > ideal*2 {
		t.Fatalf("finish %d far above ROB-limited ideal %d", finish, ideal)
	}
}

func TestWritesArePosted(t *testing.T) {
	// Writes never block retirement: zero-gap writes with huge latency
	// memory should finish almost immediately.
	src := trace.NewSliceSource(recs(100, 0, mem.Write))
	c := NewCore(0, DefaultConfig(), src, 100)
	f := newFakeMemory(10_000)
	finish := run(t, c, f, 5_000)
	if finish > 200 {
		t.Fatalf("posted writes took %d cycles", finish)
	}
}

func TestBackpressureBlocksIssue(t *testing.T) {
	src := trace.NewSliceSource(recs(4, 0, mem.Read))
	c := NewCore(0, DefaultConfig(), src, 4)
	f := newFakeMemory(5)
	f.reject = true
	for now := uint64(1); now <= 50; now++ {
		f.deliver(now, c)
		if _, err := c.Cycle(now, f.issue(now)); err != nil {
			t.Fatal(err)
		}
	}
	if c.OpsIssued() != 0 {
		t.Fatal("rejected ops must not count as issued")
	}
	f.reject = false
	run(t, c, f, 1_000)
	if c.OpsIssued() != 4 {
		t.Fatalf("issued %d ops after backpressure lifted, want 4", c.OpsIssued())
	}
}

// TestBlockedOnceTargetIssued covers a core that has issued its whole
// target while its trace still has records: with only reads outstanding it
// can neither issue nor retire, so it is blocked exactly like a core whose
// trace ran dry.
func TestBlockedOnceTargetIssued(t *testing.T) {
	src := trace.NewSliceSource(recs(8, 0, mem.Read))
	c := NewCore(0, DefaultConfig(), src, 2)
	f := newFakeMemory(100)
	for now := uint64(1); now <= 2; now++ {
		if _, err := c.Cycle(now, f.issue(now)); err != nil {
			t.Fatal(err)
		}
	}
	if c.OpsIssued() != 2 || !c.Blocked() {
		t.Fatalf("issued %d ops, blocked=%v; want the whole target issued and the core blocked", c.OpsIssued(), c.Blocked())
	}
	f.deliver(200, c)
	if c.Blocked() {
		t.Fatal("a completion must unblock the core")
	}
	run(t, c, f, 1_000)
}

// TestInactiveCycleWithoutIssueIsBlocked pins the invariant the simulation
// loop's shortcuts rest on: a Cycle that changes no state and never reaches
// the memory system leaves a not-done core Blocked. So an inactive core
// that is not Blocked was held back only by a rejected issue, and repeats
// that cycle exactly for as long as the memory system keeps rejecting.
func TestInactiveCycleWithoutIssueIsBlocked(t *testing.T) {
	var checked int
	for seed := int64(1); seed <= 400; seed++ {
		c, now := randomCore(t, seed)
		// From here no read completes and half the issues are rejected:
		// run until the first inactive cycle that made no attempt.
		rng := rand.New(rand.NewSource(seed))
		attempted := false
		issue := func(int, trace.Record) (uint64, bool, error) {
			attempted = true
			return 1 << 40, rng.Intn(2) == 0, nil
		}
		for i := uint64(1); i <= 5000 && !c.Done() && !c.Blocked(); i++ {
			attempted = false
			active, err := c.Cycle(now+i, issue)
			if err != nil {
				t.Fatal(err)
			}
			if active || attempted || c.Done() {
				continue
			}
			checked++
			if !c.Blocked() {
				t.Fatalf("seed %d: inactive cycle with no issue attempt left the core unblocked: %+v", seed, c)
			}
		}
	}
	if checked < 50 {
		t.Fatalf("only %d of 400 random states had an inactive cycle; the generator lost coverage", checked)
	}
}

func TestTraceExhaustion(t *testing.T) {
	// Target larger than the trace: the core should still finish.
	src := trace.NewSliceSource(recs(5, 1, mem.Read))
	c := NewCore(0, DefaultConfig(), src, 100)
	f := newFakeMemory(3)
	run(t, c, f, 1_000)
	if c.OpsIssued() != 5 {
		t.Fatalf("issued %d, want all 5 available ops", c.OpsIssued())
	}
}

func TestReadWriteCounts(t *testing.T) {
	rs := append(recs(6, 1, mem.Read), recs(4, 1, mem.Write)...)
	c := NewCore(0, DefaultConfig(), trace.NewSliceSource(rs), 10)
	f := newFakeMemory(2)
	run(t, c, f, 1_000)
	if c.Reads.Value() != 6 || c.Writes.Value() != 4 {
		t.Fatalf("reads/writes = %d/%d, want 6/4", c.Reads.Value(), c.Writes.Value())
	}
}

func TestRetiredMonotonic(t *testing.T) {
	src := trace.NewSliceSource(recs(50, 3, mem.Read))
	c := NewCore(0, DefaultConfig(), src, 50)
	f := newFakeMemory(7)
	var prev uint64
	for now := uint64(1); now < 2_000 && !c.Done(); now++ {
		f.deliver(now, c)
		if _, err := c.Cycle(now, f.issue(now)); err != nil {
			t.Fatal(err)
		}
		if c.Retired() < prev {
			t.Fatal("retired count went backwards")
		}
		if c.Retired() > prev+4 {
			t.Fatalf("retired %d instructions in one cycle (width 4)", c.Retired()-prev)
		}
		prev = c.Retired()
	}
	if !c.Done() {
		t.Fatal("core did not finish")
	}
}

func TestZeroConfigUsesDefaults(t *testing.T) {
	c := NewCore(0, Config{}, trace.NewSliceSource(recs(1, 0, mem.Read)), 1)
	f := newFakeMemory(1)
	run(t, c, f, 100)
}

// randomCore drives a core with a random pipeline shape through a random
// prefix of cycles (random gaps, read/write mix, backpressure and
// completion order) and returns it with the last cycle number. The same
// seed always yields an identical core, so two calls give twins.
func randomCore(t *testing.T, seed int64) (*Core, uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := Config{ROBSize: 1 + rng.Intn(96), Width: 1 + rng.Intn(6)}
	rs := make([]trace.Record, 1+rng.Intn(40))
	for i := range rs {
		gap := uint32(rng.Intn(8))
		if rng.Intn(3) == 0 {
			gap = uint32(rng.Intn(2000))
		}
		typ := mem.Read
		if rng.Intn(3) == 0 {
			typ = mem.Write
		}
		rs[i] = trace.Record{Gap: gap, Type: typ, VAddr: mem.VirtAddr(i * 64)}
	}
	c := NewCore(0, cfg, trace.NewSliceSource(rs), uint64(1+rng.Intn(len(rs)+4)))
	var inflight []uint64
	var nextToken uint64
	issue := func(_ int, rec trace.Record) (uint64, bool, error) {
		if rng.Intn(4) == 0 {
			return 0, false, nil
		}
		if rec.Type == mem.Write {
			return 0, true, nil
		}
		nextToken++
		inflight = append(inflight, nextToken)
		return nextToken, true, nil
	}
	var now uint64
	for steps := uint64(rng.Intn(600)); now < steps && !c.Done(); {
		now++
		for i := 0; i < len(inflight); {
			if rng.Intn(10) == 0 {
				c.OnComplete(inflight[i])
				inflight = append(inflight[:i], inflight[i+1:]...)
			} else {
				i++
			}
		}
		if _, err := c.Cycle(now, issue); err != nil {
			t.Fatal(err)
		}
	}
	return c, now
}

// TestRetireCyclesMatchesCycle checks the compute-gap fast-forward against
// the per-cycle model: from random pipeline states, RetireCycles(n) for
// every n <= RetireSpan() leaves the core exactly as n Cycle calls would,
// those calls only retire (they never reach the memory system), and the
// cycle after the span does something else.
func TestRetireCyclesMatchesCycle(t *testing.T) {
	noIssue := func(int, trace.Record) (uint64, bool, error) {
		t.Fatal("a cycle inside the retire span attempted an issue")
		return 0, false, nil
	}
	var withSpan int
	for seed := int64(1); seed <= 400; seed++ {
		probe, now := randomCore(t, seed)
		span := probe.RetireSpan()
		if span > 0 {
			withSpan++
		}
		for n := uint64(0); n <= span; n++ {
			if n > 40 && n != span {
				n = span // long spans: check the prefix and the whole span
			}
			fast, _ := randomCore(t, seed)
			slow, _ := randomCore(t, seed)
			fast.RetireSpan()
			slow.RetireSpan()
			fast.RetireCycles(n)
			for i := uint64(1); i <= n; i++ {
				before, stalls := slow.Retired(), slow.StallCycles.Value()
				active, err := slow.Cycle(now+i, noIssue)
				if err != nil {
					t.Fatal(err)
				}
				if !active || slow.Retired() == before || slow.StallCycles.Value() != stalls || slow.Done() {
					t.Fatalf("seed %d: cycle %d of a %d-cycle span did more than retire", seed, i, span)
				}
			}
			if !reflect.DeepEqual(fast, slow) {
				t.Fatalf("seed %d: RetireCycles(%d) diverged from %d Cycle calls\nfast: %+v\nslow: %+v", seed, n, n, fast, slow)
			}
		}
		// The span is tight: the next cycle pulls, issues, stalls or
		// finishes.
		if probe.Done() {
			continue
		}
		probe.RetireCycles(span)
		issued := false
		record := func(int, trace.Record) (uint64, bool, error) { issued = true; return 0, false, nil }
		havePend, exhausted, stalls := probe.havePend, probe.exhausted, probe.StallCycles.Value()
		if _, err := probe.Cycle(now+span+1, record); err != nil {
			t.Fatal(err)
		}
		if !issued && !probe.Done() && probe.StallCycles.Value() == stalls &&
			probe.havePend == havePend && probe.exhausted == exhausted {
			t.Fatalf("seed %d: cycle after a %d-cycle span only retired; the span is not tight", seed, span)
		}
	}
	if withSpan < 50 {
		t.Fatalf("only %d of 400 random states had a retire span; the generator lost coverage", withSpan)
	}
}
