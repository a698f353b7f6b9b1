// Package cpu implements the USIMM-style trace-driven core front end of the
// paper's methodology (Table III): a 64-entry reorder buffer retiring up to
// 4 instructions per CPU cycle. Memory reads block retirement when they
// reach the ROB head until their data returns; write-backs are posted to
// the memory controller and retire immediately. The model captures
// memory-level parallelism: independent misses within the ROB window
// overlap in the memory system.
package cpu

import (
	"math"

	"repro/internal/mem"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config sets the core's pipeline parameters.
type Config struct {
	ROBSize int // instruction window (Table III: 64)
	Width   int // retire width per CPU cycle (Table III: 4)
}

// DefaultConfig returns the Table III core.
func DefaultConfig() Config { return Config{ROBSize: 64, Width: 4} }

// IssueFunc presents one memory operation to the memory hierarchy. For
// reads it returns a completion token; accepted=false indicates
// backpressure (retry next cycle).
type IssueFunc func(core int, rec trace.Record) (token uint64, accepted bool, err error)

// Core simulates one trace-driven core.
type Core struct {
	id  int
	cfg Config
	src trace.Source

	retired uint64 // instructions retired so far

	// pending is the next memory operation not yet accepted by the memory
	// system; pendingIdx is its instruction index in the dynamic stream.
	pending    trace.Record
	pendingIdx uint64
	havePend   bool

	// Outstanding reads, in issue order, in a value ring at
	// [fHead, fHead+fLen) mod len(flights). Reads issue with monotonically
	// increasing instruction indices, so the oldest incomplete entry bounds
	// retirement; completed entries are marked and popped lazily. The ring
	// is bounded by the ROB window (an unretired read keeps every younger
	// op inside the window), so OnComplete's linear scan is O(ROBSize) worst
	// case and O(outstanding) typical — and allocation-free, unlike the
	// token map it replaces.
	flights  []flight
	fHead    int
	fLen     int
	nFlights int // incomplete count

	opsIssued uint64
	opsTarget uint64
	exhausted bool // trace source ran dry before the target
	// blocked marks a core provably unable to issue or retire until one of
	// its outstanding reads completes; Cycle takes a constant-time stall
	// path while it is set. OnComplete clears it.
	blocked bool
	lastIdx uint64 // instruction index just past the last issued op

	done        bool
	finishCycle uint64

	// Stats.
	Reads       stats.Counter
	Writes      stats.Counter
	StallCycles stats.Counter // cycles with zero retirement while active
}

// NewCore builds a core that consumes opsTarget memory operations from src.
func NewCore(id int, cfg Config, src trace.Source, opsTarget uint64) *Core {
	if cfg.ROBSize <= 0 || cfg.Width <= 0 {
		cfg = DefaultConfig()
	}
	return &Core{
		id:        id,
		cfg:       cfg,
		src:       src,
		opsTarget: opsTarget,
	}
}

// flight is one outstanding read.
type flight struct {
	idx   uint64
	token uint64
	done  bool
}

// Done reports whether the core has issued and completed all operations.
func (c *Core) Done() bool { return c.done }

// FinishCycle returns the CPU cycle at which the core completed (valid once
// Done).
func (c *Core) FinishCycle() uint64 { return c.finishCycle }

// Retired returns instructions retired so far.
func (c *Core) Retired() uint64 { return c.retired }

// Blocked reports whether the core is provably unable to make progress
// until a completion arrives: the head of the ROB is an outstanding read
// and the issue side cannot move either. While it holds, Cycle would only
// charge a stall cycle; callers that know no completion can arrive (the
// simulation loop between token deliveries) may use AddIdleCycles
// instead. An inactive Cycle (see Cycle) that leaves an unfinished core
// unblocked was held back only by a rejected issue.
func (c *Core) Blocked() bool { return c.blocked }

// Deprecated: StallTick is AddIdleCycles(1) on a Blocked core, kept only
// because the benchmark's step driver (perfbench/stepdriver.go) calls it.
func (c *Core) StallTick() { c.StallCycles.Inc() }

// OpsIssued returns memory operations issued so far.
func (c *Core) OpsIssued() uint64 { return c.opsIssued }

// OnComplete delivers a finished read token.
func (c *Core) OnComplete(token uint64) {
	c.blocked = false
	mask := len(c.flights) - 1
	for i := 0; i < c.fLen; i++ {
		f := &c.flights[(c.fHead+i)&mask]
		if !f.done && f.token == token {
			f.done = true
			c.nFlights--
			return
		}
	}
}

// pushFlight appends an outstanding read to the ring, growing it (rare:
// only until it reaches the ROB-bounded steady-state size) when full.
func (c *Core) pushFlight(f flight) {
	if c.fLen == len(c.flights) {
		size := 2 * len(c.flights)
		if size == 0 {
			size = 16
		}
		next := make([]flight, size)
		for i := 0; i < c.fLen; i++ {
			next[i] = c.flights[(c.fHead+i)&(len(c.flights)-1)]
		}
		c.flights = next
		c.fHead = 0
	}
	c.flights[(c.fHead+c.fLen)&(len(c.flights)-1)] = f
	c.fLen++
}

// oldestIncomplete returns the instruction index of the oldest outstanding
// read, popping completed heads.
func (c *Core) oldestIncomplete() (uint64, bool) {
	mask := len(c.flights) - 1
	for c.fLen > 0 && c.flights[c.fHead].done {
		c.fHead = (c.fHead + 1) & mask
		c.fLen--
	}
	if c.fLen == 0 {
		return 0, false
	}
	return c.flights[c.fHead].idx, true
}

// AddIdleCycles charges n stalled CPU cycles arithmetically, exactly as n
// calls to Cycle would when the core is frozen (cannot issue or retire).
// The simulator uses it during idle fast-forward; calling it on a done core
// is a no-op, matching Cycle's early return.
func (c *Core) AddIdleCycles(n uint64) {
	if !c.done {
		c.StallCycles.Add(n)
	}
}

// RetireSpan returns how many of the next CPU cycles would, if no read
// completes meanwhile, do nothing but retire instructions: no trace pull,
// no issue attempt, no stall and no finish. The simulator uses it to
// fast-forward compute gaps with RetireCycles. It may discard completed
// reads from the flight ring, as Cycle does.
func (c *Core) RetireSpan() uint64 {
	if !c.havePend && c.opsIssued < c.opsTarget && !c.exhausted {
		return 0 // the next cycle pulls from the trace
	}
	bound := c.retireBound()
	if bound <= c.retired || bound == math.MaxUint64 {
		// A stall (a blocked core always stalls), or nothing left to wait
		// for: the core finishes, or has finished.
		return 0
	}
	// last is the highest retired count at which a cycle still only
	// retires: below the bound, and with the unissued op still outside the
	// ROB window (Cycle attempts the issue once it is inside).
	last := bound - 1
	if c.havePend {
		rob := uint64(c.cfg.ROBSize)
		if c.pendingIdx < c.retired+rob {
			return 0
		}
		last = min(last, c.pendingIdx-rob)
	}
	return (last-c.retired)/uint64(c.cfg.Width) + 1
}

// RetireCycles applies n CPU cycles arithmetically, exactly as n calls to
// Cycle would when n <= RetireSpan(). Like AddIdleCycles it is a no-op on a
// done core.
func (c *Core) RetireCycles(n uint64) {
	if !c.done {
		c.retired = min(c.retired+n*uint64(c.cfg.Width), c.retireBound())
	}
}

// retireBound returns the instruction index retirement cannot pass until a
// read completes or the pending op issues: the oldest incomplete read or
// the unissued op, whichever comes first (math.MaxUint64 if neither).
func (c *Core) retireBound() uint64 {
	bound, ok := c.oldestIncomplete()
	if !ok {
		bound = math.MaxUint64
	}
	if c.havePend {
		bound = min(bound, c.pendingIdx)
	}
	return bound
}

// loadPending pulls the next memory op from the trace, assigning its
// instruction index (after Gap non-memory instructions).
func (c *Core) loadPending() {
	if c.havePend || c.opsIssued >= c.opsTarget || c.exhausted {
		return
	}
	rec, ok := c.src.Next()
	if !ok {
		c.exhausted = true
		return
	}
	c.pending = rec
	// The op executes after its gap of non-memory instructions, relative
	// to the previously issued op's position.
	c.pendingIdx = c.issueBase() + uint64(rec.Gap)
	c.havePend = true
}

// issueBase returns the instruction index just past the last issued op.
func (c *Core) issueBase() uint64 { return c.lastIdx }

// Cycle advances the core one CPU cycle: it issues ready memory operations
// (bounded by the ROB window and issue width) and retires instructions.
// active reports whether any architectural state changed (an op issued or
// pulled from the trace, instructions retired, or the core finished); a
// cycle with active=false would repeat identically every cycle until a read
// completion arrives, except for the stall counter — which AddIdleCycles
// advances arithmetically during fast-forward.
func (c *Core) Cycle(now uint64, issue IssueFunc) (active bool, err error) {
	if c.done {
		return false, nil
	}
	if c.blocked {
		// Frozen until a read completes (see below): nothing to issue,
		// nothing to retire. Account the stall and return.
		c.StallCycles.Inc()
		return false, nil
	}
	// Issue: ops whose position fits inside the ROB window.
	for issued := 0; issued < c.cfg.Width; issued++ {
		hadPend, wasExhausted := c.havePend, c.exhausted
		c.loadPending()
		if c.havePend != hadPend || c.exhausted != wasExhausted {
			active = true
		}
		if !c.havePend {
			break
		}
		if c.pendingIdx >= c.retired+uint64(c.cfg.ROBSize) {
			break // op hasn't entered the ROB yet
		}
		token, accepted, err := issue(c.id, c.pending)
		if err != nil {
			return active, err
		}
		if !accepted {
			break // memory-system backpressure
		}
		active = true
		if c.pending.Type == mem.Read {
			c.pushFlight(flight{idx: c.pendingIdx, token: token})
			c.nFlights++
			c.Reads.Inc()
		} else {
			c.Writes.Inc()
		}
		c.opsIssued++
		c.lastIdx = c.pendingIdx + 1
		c.havePend = false
	}

	// Retire: up to Width instructions, not past the oldest incomplete
	// read and not past an unissued (stalled) memory op.
	limit := min(c.retired+uint64(c.cfg.Width), c.retireBound())
	if limit == c.retired {
		c.StallCycles.Inc()
		// If the issue side cannot move either — no op is left to issue
		// (trace exhausted or target issued), or the next op sits outside
		// the ROB window, whose lower edge only advances when retirement
		// does — the core's entire state is frozen until an outstanding
		// read completes. OnComplete clears the flag.
		if !active && c.nFlights > 0 &&
			(!c.havePend || c.pendingIdx >= c.retired+uint64(c.cfg.ROBSize)) {
			c.blocked = true
		}
	} else {
		active = true
	}
	c.retired = limit

	if c.nFlights == 0 {
		if c.opsIssued >= c.opsTarget || (c.exhausted && !c.havePend) {
			c.done = true
			c.finishCycle = now
			active = true
		}
	}
	return active, nil
}
