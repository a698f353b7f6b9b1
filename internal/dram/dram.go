package dram

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"repro/internal/addrmap"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/stats"
)

// SchedPolicy selects the memory-controller scheduling algorithm.
type SchedPolicy uint8

const (
	// FRFCFS is first-ready, first-come-first-served with rank batching —
	// the standard high-performance policy assumed by the paper's USIMM
	// methodology (default).
	FRFCFS SchedPolicy = iota
	// FCFS serves the oldest request strictly in order; a baseline for
	// scheduler ablations.
	FCFS
)

// Config describes a memory system instance.
type Config struct {
	Timing Timing
	Geom   addrmap.Geometry
	// Sched selects the scheduling policy (default FRFCFS).
	Sched SchedPolicy
	// ReadQ / WriteQ are the per-channel queue capacities (48/48 in
	// Table III).
	ReadQ  int
	WriteQ int
	// HighWM / LowWM are the write-drain watermarks: when the write queue
	// reaches HighWM the channel drains writes until LowWM.
	HighWM int
	LowWM  int
	// Deprecated: TickWorkers is a stub left from channel-parallel
	// ticking, which was removed because a barrier every DRAM cycle costs
	// more than a channel tick. Channels always tick serially; 0 and 1 are
	// accepted and New panics on anything larger. The stub exists only
	// because the benchmark's step driver (perfbench/stepdriver.go) still
	// sets it; delete it when a benchmark change drops it there.
	TickWorkers int
}

// DefaultConfig returns the Table III configuration for the given channel
// count.
func DefaultConfig(channels int) Config {
	return Config{
		Timing: DDR3_1600(),
		Geom:   addrmap.DefaultGeometry(channels),
		ReadQ:  48,
		WriteQ: 48,
		HighWM: 40,
		LowWM:  20,
	}
}

// Txn is one 64-byte memory transaction in flight.
type Txn struct {
	Op  mem.Op
	Loc addrmap.Location

	// GroupID is an opaque caller tag carried through completion; the
	// security engine uses it to route a finished read back to its access
	// group without a per-transaction map. Zero means untagged.
	GroupID uint32

	// Arrival is the DRAM cycle the transaction entered the queue.
	Arrival uint64
	// Done is the cycle the data burst finished (valid after completion).
	Done uint64
	// RowHit records whether the transaction was served without an
	// intervening ACTIVATE (set at column-command issue).
	RowHit bool

	neededAct bool
	colIssued bool
	// seq is the channel-local arrival order used by the bank-indexed
	// FR-FCFS scan to reproduce flat queue-order tie-breaking.
	seq uint64
}

// Latency returns the queueing+service latency in DRAM cycles.
func (t *Txn) Latency() uint64 { return t.Done - t.Arrival }

// cmd enumerates DRAM commands for the scheduler.
type cmd uint8

const (
	cmdNone cmd = iota
	cmdAct
	cmdPre
	cmdRead
	cmdWrite
)

// bank is the per-bank row-buffer state machine.
type bank struct {
	open    bool
	row     int
	nextAct uint64 // earliest ACTIVATE (tRC, tRP)
	nextCol uint64 // earliest column command (tRCD)
	nextPre uint64 // earliest PRECHARGE (tRAS, tRTP, tWR)
}

// rank holds rank-level constraints shared by its banks.
type rank struct {
	banks []bank
	// actWindow holds issueCycle+1 of the last four ACTIVATEs (0 = empty
	// slot) to enforce tFAW.
	actWindow   [4]uint64
	actIdx      int
	nextRankAct uint64 // earliest next ACTIVATE in this rank (tRRD)
	wtrUntil    uint64 // no read column command before this (tWTR)
	// refresh bookkeeping
	nextRef    uint64
	refPending bool
	refUntil   uint64
}

// ChannelStats aggregates per-channel event counts for performance and
// energy reporting.
type ChannelStats struct {
	Reads      stats.Counter
	Writes     stats.Counter
	Activates  stats.Counter
	Precharges stats.Counter
	Refreshes  stats.Counter
	RowHits    stats.Counter
	RowMisses  stats.Counter
	BusBusy    stats.Counter // data-bus busy cycles
	ReadLat    stats.Mean    // read latency in DRAM cycles
	// KindReads/KindWrites break traffic down by transaction kind for the
	// Fig 3 / Fig 9 analyses.
	KindReads  [mem.NumKinds]stats.Counter
	KindWrites [mem.NumKinds]stats.Counter
}

// RowHitRate returns row hits over all column commands.
func (s *ChannelStats) RowHitRate() float64 {
	total := s.RowHits.Value() + s.RowMisses.Value()
	if total == 0 {
		return 0
	}
	return float64(s.RowHits.Value()) / float64(total)
}

// bankList holds one bank's queued transactions (one direction) in arrival
// order, plus lazily maintained class representatives: hitRep is the oldest
// transaction targeting the open row, missRep the oldest needing a PRE (open
// bank) or ACT (closed bank). Because every scheduler gate is bank- or
// rank-level and a queue has a uniform direction, these two are the only
// transactions FR-FCFS can ever pick from this bank, turning the O(queue)
// scan into an O(banks) one. dirty is set when the bank's open row changes
// or a member leaves; enqueues update the reps incrementally.
type bankList struct {
	txns    []*Txn
	hitRep  *Txn
	missRep *Txn
	dirty   bool
}

// recompute rebuilds the representatives against the bank's current row
// state.
func (bl *bankList) recompute(bk *bank) {
	bl.dirty = false
	bl.hitRep, bl.missRep = nil, nil
	if !bk.open {
		if len(bl.txns) > 0 {
			bl.missRep = bl.txns[0]
		}
		return
	}
	for _, t := range bl.txns {
		if t.Loc.Row == bk.row {
			if bl.hitRep == nil {
				bl.hitRep = t
			}
		} else if bl.missRep == nil {
			bl.missRep = t
		}
		if bl.hitRep != nil && bl.missRep != nil {
			return
		}
	}
}

// Per-rank cached class release times live in two flat uint64 arrays per
// queue direction (relHit*/relOther* on channel) so the scheduler's
// every-scan fold touches a handful of contiguous cache lines instead of a
// struct per rank. relHit[r] is the earliest cycle a row-hit column command
// could issue ignoring the shared data bus (the bus gate has only two
// per-scan values, same-rank and cross-rank, applied live); relOther[r] is
// the earlier of the rank's PRE and ACT releases (ACT counts as MaxUint64
// while a refresh is pending). MaxUint64 also means the class has no
// candidates. Every term is an absolute timer over state that changes only
// when a command issues on the rank, a transaction arrives for it, or its
// refresh state changes, so a cached entry lets the scan skip the rank's
// banks entirely while no class has matured. Entries are invalidated by
// zeroing relOther (zero always reads as matured, forcing the walk that
// rebuilds both values); arrivals instead fold the newcomer's bank timer in
// as a conservatively early bound.
//
// Alongside the release times, each rank also caches the class
// representatives themselves (colRep*/anyRep*): the minimum-seq member of
// each class that is ready ignoring the shared data bus. Within a rank the
// bus gate is uniform, so the ready set of a class — and therefore its
// min-seq representative — can change over time only when a member's own
// release crosses now. repUntil* records the earliest such future crossing
// (the first "joiner"); while now < repUntil and no state-changing event
// has hit the rank, the cached representatives are exactly what a walk
// would pick, so a matured rank costs one pointer compare instead of a
// bank walk. Unlike the release times, representatives have no safe stale
// direction (issuing a stale candidate would violate timing), so every
// event that mutates rank-local scheduler state zeroes repUntil: any
// command issued on the rank (column issues remove the representative and
// raise bank/wtr timers), an arrival for the rank, a refresh drain PRE, a
// REF issue, and the refPending flip (which withholds ACT candidates).

// channel is one DDR channel: queues, banks, bus, and scheduler state.
type channel struct {
	cfg   Config
	ranks []rank

	readQ  []*Txn
	writeQ []*Txn
	// bankRead/bankWrite mirror the queues bucketed by (rank, bank) so the
	// FR-FCFS scan touches each bank's two class representatives instead of
	// every queued transaction. busyRead/busyWrite are occupancy bitmaps
	// over the same index space so the scan visits only nonempty banks
	// (occupancy is typically a small fraction of ranks*banks). rankOf and
	// bankOf flatten the bank index back to rank number and bank state
	// without a division on the hot path.
	bankRead  []bankList
	bankWrite []bankList
	busyRead  []uint64
	busyWrite []uint64
	rankOf    []uint16
	banks     []bank // contiguous bank states; rank.banks alias into it
	// Cached per-rank class releases (see the comment above channel): one
	// hit/other pair per direction, carved from a single backing array so
	// the whole fast path spans eight consecutive cache lines.
	relHitR   []uint64
	relOtherR []uint64
	relHitW   []uint64
	relOtherW []uint64
	// relNext*[r] = min(relHit*[r], relOther*[r]), maintained alongside the
	// pair so the scan's common case — a rank with nothing matured and the
	// bus gate clear — costs a single load and compare.
	relNextR []uint64
	relNextW []uint64
	// Cached per-rank class representatives with their validity horizon
	// (see the comment above channel). repUntil==0 means invalid.
	colRepR   []*Txn
	colRepW   []*Txn
	anyRepR   []*Txn
	anyRepW   []*Txn
	anyCmdR   []cmd
	anyCmdW   []cmd
	repUntilR []uint64
	repUntilW []uint64
	seq       uint64 // arrival counter feeding Txn.seq

	// rankBusyRead/rankBusyWrite summarize the bank bitmaps one level up:
	// bit r is set while rank r holds any queued transaction of that
	// direction (counts back the bits). The scheduler scan iterates set
	// bits only — an empty rank has no candidates and no finite release
	// times to fold, so skipping it is exact.
	rankBusyRead  uint64
	rankBusyWrite uint64
	rankNRead     []uint16
	rankNWrite    []uint16

	// pending completions ordered by insertion; completion times are
	// monotonic enough that a linear scan each cycle is cheap (queues are
	// small), but we keep them sorted for determinism. nextDone is the
	// exact minimum Done over pending (maintained on append, recomputed on
	// delivery; Done never changes once set), so the delivery scan runs
	// only on cycles a burst actually lands.
	pending  []*Txn
	nextDone uint64

	busFreeAt uint64
	lastRank  int
	lastWasWr bool
	draining  bool

	// nextTry memoizes a failed scheduler scan: no queued transaction can
	// have an issuable command before this cycle unless the scheduler state
	// changes first. Every gating condition in cmdReady compares now against
	// an absolute timer over state that only changes when a command issues
	// (bank/bus/rank timers, lastRank) or a transaction arrives, so a scan
	// that finds nothing issuable also yields the exact earliest re-check
	// time; issues and enqueues reset the memo to 0 (always scan). This
	// skips the O(queue) FR-FCFS scan on the majority of ticks.
	nextTry uint64

	// refNext memoizes the refresh state machine the same way: the
	// earliest cycle any rank can flip refPending (nextRef), finish its
	// refresh window (refUntil), or have a drain PRE mature (the open
	// banks' minimum nextPre). All three are absolute timers, and no
	// normal-path command can close a bank in a draining rank before that
	// minimum (a PRE is gated by the very same nextPre, and ticks check
	// refresh before the scheduler scan), so evaluation at refNext is
	// exact. Reset to 0 whenever issueRefresh acts.
	refNext uint64

	// check, when attached, validates every issued command against JEDEC
	// timing invariants (test instrumentation).
	check *Checker

	// tr, when attached, receives one instant event per issued DRAM
	// command on this channel's trace track.
	tr    *obs.Tracer
	track obs.TrackID

	Stats ChannelStats
}

// Memory is the full multi-channel DRAM system.
type Memory struct {
	cfg      Config
	channels []*channel
	now      uint64 // current DRAM cycle
}

// New builds a memory system from cfg.
func New(cfg Config) *Memory {
	if cfg.ReadQ <= 0 || cfg.WriteQ <= 0 {
		panic("dram: queue capacities must be positive")
	}
	if cfg.LowWM >= cfg.HighWM || cfg.HighWM > cfg.WriteQ {
		panic(fmt.Sprintf("dram: bad watermarks low=%d high=%d cap=%d", cfg.LowWM, cfg.HighWM, cfg.WriteQ))
	}
	if cfg.TickWorkers > 1 {
		panic(fmt.Sprintf("dram: TickWorkers=%d: channel-parallel ticking was removed", cfg.TickWorkers))
	}
	m := &Memory{cfg: cfg}
	for c := 0; c < cfg.Geom.Channels; c++ {
		ch := &channel{cfg: cfg, lastRank: -1}
		ch.ranks = make([]rank, cfg.Geom.RanksPerChan)
		nb := cfg.Geom.RanksPerChan * cfg.Geom.BanksPerRank
		ch.bankRead = make([]bankList, nb)
		ch.bankWrite = make([]bankList, nb)
		ch.busyRead = make([]uint64, (nb+63)/64)
		ch.busyWrite = make([]uint64, (nb+63)/64)
		ch.rankOf = make([]uint16, nb)
		rel := make([]uint64, 6*cfg.Geom.RanksPerChan)
		nr := cfg.Geom.RanksPerChan
		ch.relHitR, ch.relOtherR = rel[0:nr], rel[nr:2*nr]
		ch.relHitW, ch.relOtherW = rel[2*nr:3*nr], rel[3*nr:4*nr]
		ch.relNextR, ch.relNextW = rel[4*nr:5*nr], rel[5*nr:6*nr]
		reps := make([]*Txn, 4*nr)
		ch.colRepR, ch.colRepW = reps[0:nr], reps[nr:2*nr]
		ch.anyRepR, ch.anyRepW = reps[2*nr:3*nr], reps[3*nr:4*nr]
		cmds := make([]cmd, 2*nr)
		ch.anyCmdR, ch.anyCmdW = cmds[0:nr], cmds[nr:2*nr]
		ru := make([]uint64, 2*nr)
		ch.repUntilR, ch.repUntilW = ru[0:nr], ru[nr:2*nr]
		if cfg.Geom.RanksPerChan > 64 {
			panic("dram: rank occupancy bitmap supports at most 64 ranks per channel")
		}
		ch.rankNRead = make([]uint16, cfg.Geom.RanksPerChan)
		ch.rankNWrite = make([]uint16, cfg.Geom.RanksPerChan)
		// One contiguous backing array for all banks keeps the scan's
		// bank-state loads on a handful of cache lines.
		store := make([]bank, nb)
		ch.banks = store
		for r := range ch.ranks {
			ch.ranks[r].banks = store[r*cfg.Geom.BanksPerRank : (r+1)*cfg.Geom.BanksPerRank]
			// Stagger refreshes across ranks to avoid lockstep stalls.
			ch.ranks[r].nextRef = cfg.Timing.TREFI * uint64(r+1) / uint64(cfg.Geom.RanksPerChan+1)
			for b := range ch.ranks[r].banks {
				ch.rankOf[r*cfg.Geom.BanksPerRank+b] = uint16(r)
			}
		}
		m.channels = append(m.channels, ch)
	}
	return m
}

// Config returns the memory configuration.
func (m *Memory) Config() Config { return m.cfg }

// AttachCheckers installs a protocol monitor on every channel and returns
// them (index = channel). Intended for tests; adds per-command overhead.
func (m *Memory) AttachCheckers() []*Checker {
	out := make([]*Checker, len(m.channels))
	for i, ch := range m.channels {
		ch.check = NewChecker(m.cfg.Timing, m.cfg.Geom.RanksPerChan, m.cfg.Geom.BanksPerRank)
		out[i] = ch.check
	}
	return out
}

// AttachObs connects the memory system to the observability layer:
// per-channel stats are registered into reg, and every issued DRAM command
// emits an instant event to tr on the matching channel track. Both may be
// nil. Observation is read-only and never alters scheduling decisions.
func (m *Memory) AttachObs(reg *obs.Registry, tr *obs.Tracer, chanTracks []obs.TrackID) {
	for c, ch := range m.channels {
		if tr != nil && len(chanTracks) > c {
			ch.tr = tr
			ch.track = chanTracks[c]
		}
		if reg != nil {
			ch.Stats.register(reg, strconv.Itoa(c))
		}
	}
}

// register exposes one channel's stats under {"channel": c}.
func (s *ChannelStats) register(reg *obs.Registry, c string) {
	l := obs.Labels{"channel": c}
	cmd := func(name string, ctr *stats.Counter) {
		reg.Counter("dram_commands_total", obs.Labels{"channel": c, "cmd": name}, ctr)
	}
	cmd("read", &s.Reads)
	cmd("write", &s.Writes)
	cmd("activate", &s.Activates)
	cmd("precharge", &s.Precharges)
	cmd("refresh", &s.Refreshes)
	reg.Counter("dram_row_hits_total", l, &s.RowHits)
	reg.Counter("dram_row_misses_total", l, &s.RowMisses)
	reg.Counter("dram_bus_busy_cycles_total", l, &s.BusBusy)
	reg.Gauge("dram_row_hit_rate", l, s.RowHitRate)
	reg.Gauge("dram_read_latency_mean_cycles", l, s.ReadLat.Value)
	for k := 0; k < mem.NumKinds; k++ {
		kl := obs.Labels{"channel": c, "kind": mem.Kind(k).String()}
		reg.Counter("dram_kind_reads_total", kl, &s.KindReads[k])
		reg.Counter("dram_kind_writes_total", kl, &s.KindWrites[k])
	}
}

// Now returns the current DRAM cycle.
func (m *Memory) Now() uint64 { return m.now }

// ChannelStats returns the stats of channel c.
func (m *Memory) ChannelStats(c int) *ChannelStats { return &m.channels[c].Stats }

// CanEnqueue reports whether channel c has room for a transaction of the
// given type.
func (m *Memory) CanEnqueue(c int, t mem.AccessType) bool {
	ch := m.channels[c]
	if t == mem.Read {
		return len(ch.readQ) < m.cfg.ReadQ
	}
	return len(ch.writeQ) < m.cfg.WriteQ
}

// QueueLen returns the current occupancy of channel c's queue for type t.
func (m *Memory) QueueLen(c int, t mem.AccessType) int {
	if t == mem.Read {
		return len(m.channels[c].readQ)
	}
	return len(m.channels[c].writeQ)
}

// Enqueue adds a transaction; it returns false (and does nothing) if the
// target queue is full. The transaction's Loc.Channel selects the channel.
func (m *Memory) Enqueue(t *Txn) bool {
	ch := m.channels[t.Loc.Channel]
	t.Arrival = m.now
	if t.Op.Type == mem.Read {
		if len(ch.readQ) >= m.cfg.ReadQ {
			return false
		}
		ch.readQ = append(ch.readQ, t)
	} else {
		if len(ch.writeQ) >= m.cfg.WriteQ {
			return false
		}
		ch.writeQ = append(ch.writeQ, t)
	}
	ch.seq++
	t.seq = ch.seq
	ch.bankInsert(t)
	// A new arrival can only add one candidate; every other transaction's
	// memoized release time is unaffected. cmdReady's gates are absolute
	// timers, so the bound computed here stays exact until the next issue.
	if c, u := ch.cmdReady(t, m.now); c != cmdNone {
		ch.nextTry = 0
	} else if u < ch.nextTry {
		ch.nextTry = u
	}
	return true
}

// Pending returns the total number of in-flight and queued transactions.
func (m *Memory) Pending() int {
	n := 0
	for _, ch := range m.channels {
		n += len(ch.readQ) + len(ch.writeQ) + len(ch.pending)
	}
	return n
}

// Tick advances the memory system one DRAM cycle. Transactions whose data
// burst completed this cycle are appended to done (which may be nil; callers
// on the hot path pass a reusable buffer re-sliced to length zero). The
// second result reports whether any channel changed state — delivered a
// completion or issued a command — this cycle; when it is false the memory
// system is guaranteed idle until at least NextEvent, which the simulation
// loop exploits to fast-forward.
func (m *Memory) Tick(done []*Txn) ([]*Txn, bool) {
	active := false
	for _, ch := range m.channels {
		var a bool
		done, a = ch.tick(m.now, done)
		active = active || a
	}
	m.now++
	return done, active
}

// Close does nothing: a Memory holds no resources.
//
// Deprecated: Close is a stub left from channel-parallel ticking, whose
// worker pool it used to stop. It exists only because the benchmark's
// step driver (perfbench/stepdriver.go) still calls it; delete it when a
// benchmark change drops the call.
func (m *Memory) Close() {}

// NextEvent returns a lower bound on the next DRAM cycle at which any
// channel could change state — deliver a completion, trigger or finish a
// refresh, or have a command become issuable — assuming no new transactions
// arrive. It must be called after a Tick that reported no activity: that
// tick either ran the scheduler scan (leaving nextTry holding the exact
// earliest issue cycle) or was itself gated by a still-valid memo, so
// command issuability reduces to the memoized bound and only completions
// and refresh milestones need enumerating. Every cycle in [Now, NextEvent)
// is then provably a no-op except for the BusBusy statistic, which SkipTo
// advances arithmetically.
func (m *Memory) NextEvent() uint64 {
	next := uint64(math.MaxUint64)
	upd := func(t uint64) {
		if t >= m.now && t < next {
			next = t
		}
	}
	for _, ch := range m.channels {
		// Completions land at the memoized minimum Done; the refresh state
		// machine next acts at its own memo (both are kept current by every
		// tick, idle or not).
		if len(ch.pending) > 0 {
			upd(ch.nextDone)
		}
		upd(ch.refNext)
		// Command issuability is exactly the scan memo: this is only called
		// after a fully idle tick, so every channel with queued work just
		// ran (or still holds) a failed scan whose bound is current.
		if len(ch.readQ)+len(ch.writeQ) > 0 {
			upd(ch.nextTry)
		}
	}
	return next
}

// SkipTo advances the memory system to the given cycle without simulating
// the intervening ones. It is only valid when the caller knows those cycles
// are no-ops: the last Tick reported no activity and target <= NextEvent().
// The per-channel BusBusy statistic — the only state the idle loop advances
// — is updated arithmetically so stats match a tick-by-tick run exactly.
func (m *Memory) SkipTo(target uint64) {
	if target <= m.now {
		return
	}
	for _, ch := range m.channels {
		if ch.busFreeAt > m.now {
			end := ch.busFreeAt
			if target < end {
				end = target
			}
			ch.Stats.BusBusy.Add(end - m.now)
		}
	}
	m.now = target
}

func (ch *channel) tick(now uint64, done []*Txn) ([]*Txn, bool) {
	active := false
	// Deliver completions once the earliest pending burst has landed.
	if len(ch.pending) > 0 && now >= ch.nextDone {
		nd := uint64(math.MaxUint64)
		for i := 0; i < len(ch.pending); {
			t := ch.pending[i]
			if t.Done <= now {
				ch.pending[i] = ch.pending[len(ch.pending)-1]
				ch.pending = ch.pending[:len(ch.pending)-1]
				if t.Op.Type == mem.Read {
					ch.Stats.ReadLat.Observe(float64(t.Done - t.Arrival))
				}
				done = append(done, t)
				active = true
				continue
			}
			if t.Done < nd {
				nd = t.Done
			}
			i++
		}
		ch.nextDone = nd
	}
	if ch.busFreeAt > now {
		ch.Stats.BusBusy.Inc()
	}

	// Update drain mode.
	if len(ch.writeQ) >= ch.cfg.HighWM {
		ch.draining = true
	} else if len(ch.writeQ) <= ch.cfg.LowWM {
		ch.draining = false
	}

	// Refresh management: when a rank's refresh is due, drain its banks
	// (via PRE below) and issue REF once all are closed. refNext bounds the
	// next cycle any of this can act, so the rank walk is skipped between
	// milestones. One command per channel per cycle; priority: refresh
	// PRE/REF, then the primary queue (writes when draining, else reads),
	// then the other queue if the primary had nothing issuable.
	if now >= ch.refNext {
		for r := range ch.ranks {
			rk := &ch.ranks[r]
			if !rk.refPending && now >= rk.nextRef {
				rk.refPending = true
				// ACT candidates are withheld from here on; a cached
				// representative could be one of them, so drop the reps
				// (the release caches stay — they are only conservatively
				// early now, which costs at most a spurious walk).
				ch.invalReps(r)
			}
		}
		if ch.issueRefresh(now) {
			ch.refNext = 0
			ch.nextTry = 0
			return done, true
		}
		ch.refNext = ch.refreshBound(now)
	}
	if now < ch.nextTry {
		// A previous scan proved nothing can issue before nextTry and no
		// issue or arrival has invalidated it since.
		return done, active
	}
	until := uint64(math.MaxUint64)
	primaryWrites := ch.draining || len(ch.readQ) == 0
	if ch.cfg.Sched == FCFS {
		primary, secondary := ch.readQ, ch.writeQ
		if primaryWrites {
			primary, secondary = ch.writeQ, ch.readQ
		}
		if ch.issueFCFS(primary, now, &until) || ch.issueFCFS(secondary, now, &until) {
			ch.nextTry = 0
			return done, true
		}
	} else if ch.issueFromBanks(primaryWrites, now, &until) || ch.issueFromBanks(!primaryWrites, now, &until) {
		ch.nextTry = 0
		return done, true
	}
	ch.nextTry = until
	return done, active
}

// issueRefresh issues a PRE or REF needed by a pending refresh; it returns
// true if a command was issued.
func (ch *channel) issueRefresh(now uint64) bool {
	for r := range ch.ranks {
		rk := &ch.ranks[r]
		if !rk.refPending || now < rk.refUntil {
			continue
		}
		allClosed := true
		for b := range rk.banks {
			bk := &rk.banks[b]
			if bk.open {
				allClosed = false
				if now >= bk.nextPre {
					if ch.check != nil {
						ch.check.OnPrecharge(now, r, b)
					}
					if ch.tr != nil {
						ch.tr.InstantArg2(ch.track, "PRE", "rank", int64(r), "bank", int64(b))
					}
					ch.precharge(rk, bk, now)
					ch.markBankDirty(r, b)
					// The drained bank's hit/PRE candidates became ACT
					// candidates; a cached representative may be stale.
					ch.invalReps(r)
					return true
				}
			}
		}
		if allClosed {
			// Issue REF.
			if ch.check != nil {
				ch.check.OnRefresh(now, r)
			}
			if ch.tr != nil {
				ch.tr.InstantArg(ch.track, "REF", "rank", int64(r))
			}
			rk.refUntil = now + ch.cfg.Timing.TRFC
			rk.nextRef += ch.cfg.Timing.TREFI
			rk.refPending = false
			ch.invalRank(r)
			for b := range rk.banks {
				if rk.banks[b].nextAct < rk.refUntil {
					rk.banks[b].nextAct = rk.refUntil
				}
			}
			ch.Stats.Refreshes.Inc()
			return true
		}
	}
	return false
}

// refreshBound returns the earliest cycle at which any rank's refresh
// machinery can next act, given that issueRefresh just declined at now: a
// quiescent rank acts at nextRef (the refPending flip), a rank inside its
// refresh window at refUntil, and a draining rank at the earliest open
// bank's nextPre (some bank is open with nextPre > now, or REF would have
// issued). Column commands can push a nextPre later — making the bound
// conservatively early, which only costs a re-scan — and nothing can make
// an action earlier: a normal-path PRE in a draining rank is gated by the
// same nextPre timers, and ACTs there are withheld.
func (ch *channel) refreshBound(now uint64) uint64 {
	next := uint64(math.MaxUint64)
	for r := range ch.ranks {
		rk := &ch.ranks[r]
		t := rk.nextRef
		if rk.refPending {
			if now < rk.refUntil {
				t = rk.refUntil
			} else {
				t = math.MaxUint64
				for b := range rk.banks {
					if bk := &rk.banks[b]; bk.open && bk.nextPre < t {
						t = bk.nextPre
					}
				}
			}
		}
		if t < next {
			next = t
		}
	}
	return next
}

// issueFCFS serves the oldest transaction strictly in order; only the
// queue head may issue. When it cannot, *until is lowered to its release
// time.
func (ch *channel) issueFCFS(q []*Txn, now uint64, until *uint64) bool {
	for _, t := range q {
		c, u := ch.cmdReady(t, now)
		if c != cmdNone {
			ch.issue(t, c, now)
			return true
		}
		if u < *until {
			*until = u
		}
		return false
	}
	return false
}

// issueFromBanks applies FR-FCFS over one direction's bank buckets: among
// transactions whose column command is issuable now, it prefers ones in the
// rank that last used the data bus (rank batching amortizes the tRTRS switch
// penalty, as commercial controllers do); otherwise the oldest ready row hit
// wins; otherwise the oldest transaction for which an ACT or PRE can be
// issued. Only each bank's two class representatives can ever be picked —
// every gate is bank- or rank-level, so same-bank same-class transactions
// are interchangeable and the oldest always wins — which makes the scan
// O(banks) instead of O(queue). Ties across banks resolve by arrival
// sequence, reproducing the flat queue-order scan exactly. When nothing is
// issuable, *until is lowered to the earliest cycle any transaction could
// become issuable with unchanged scheduler state. Returns true if a command
// was issued.
func (ch *channel) issueFromBanks(isWrite bool, now uint64, until *uint64) bool {
	q, rbits := ch.readQ, ch.rankBusyRead
	relHit, relOther, relNext := ch.relHitR, ch.relOtherR, ch.relNextR
	colRep, anyRep, anyCmdOf, repUntil := ch.colRepR, ch.anyRepR, ch.anyCmdR, ch.repUntilR
	if isWrite {
		q, rbits = ch.writeQ, ch.rankBusyWrite
		relHit, relOther, relNext = ch.relHitW, ch.relOtherW, ch.relNextW
		colRep, anyRep, anyCmdOf, repUntil = ch.colRepW, ch.anyRepW, ch.anyCmdW, ch.repUntilW
	}
	if len(q) == 0 {
		return false
	}
	tm := &ch.cfg.Timing
	lead, colCmd := tm.TCAS, cmdRead
	if isWrite {
		lead, colCmd = tm.TCWD, cmdWrite
	}
	// The shared-bus gate on column commands takes just two values per scan:
	// one for the rank that last used the bus, one for every other rank.
	busSame, busOther := ch.busFreeAt, ch.busFreeAt
	if ch.lastRank >= 0 {
		busOther += tm.TRTRS
		if ch.lastWasWr != isWrite {
			busSame += 2
			busOther += 2
		}
	}
	colGateSame, colGateOther := uint64(0), uint64(0)
	if busSame > lead {
		colGateSame = busSame - lead
	}
	if busOther > lead {
		colGateOther = busOther - lead
	}
	sc := scanCtx{isWrite: isWrite, now: now, u: *until}
	// Rank batching makes the last-used rank the likeliest source of the
	// winning candidate, and a ready same-rank row hit (colLR) beats every
	// other class outright — so scan that rank first and short-circuit the
	// rest when one is found. The early exit is decision-identical to the
	// full scan: colLR can only come from lastRank, the skipped ranks' state
	// (timers and cached releases) is untouched and therefore not stale, and
	// an issuing scan's *until is discarded by the caller (nextTry resets to
	// zero), so the partial fold is never observed.
	// Ranks whose only matured class is ACT/PRE are deferred: a ready row
	// hit anywhere beats the any-class outright, so their walk is needed
	// only when no col candidate turns up. Deferred walks are skipped
	// entirely on a col issue (the caller then resets the scan memo, so the
	// partial until-fold and the stale-matured cache entries are never
	// observed; the entries force their own rebuild on the next scan).
	var defer64 uint64
	deferLR := -1
	if lr := ch.lastRank; lr >= 0 && rbits&(1<<uint(lr)) != 0 {
		hGate := relHit[lr]
		if colGateSame > hGate {
			hGate = colGateSame
		}
		ro := relOther[lr]
		if now >= hGate {
			// A nil representative with a matured class means an arrival
			// filled the class after the last walk (arrivals leave the rep
			// cache in place — a newcomer has the largest seq, so it can
			// fill an empty slot but never displace a ready winner); walk
			// to pick it up.
			if now < repUntil[lr] && colRep[lr] != nil {
				ch.issue(colRep[lr], colCmd, now)
				return true
			}
			ch.scanRank(&sc, lr, colGateSame, true)
			if sc.colLR != nil {
				ch.issue(sc.colLR, colCmd, now)
				return true
			}
		} else if now >= ro {
			if a := anyRep[lr]; now < repUntil[lr] && a != nil {
				if sc.any == nil || a.seq < sc.any.seq {
					sc.any, sc.anyCmd = a, anyCmdOf[lr]
				}
			} else {
				deferLR = lr
			}
		} else {
			if hGate < sc.u {
				sc.u = hGate
			}
			if ro < sc.u {
				sc.u = ro
			}
		}
		rbits &^= 1 << uint(lr)
	}
	// The cached releases say whether anything in a rank can have matured;
	// while nothing has, fold them into the running bound and skip the
	// rank's banks entirely. Matured ranks with a valid representative
	// cache resolve in O(1); only stale ones walk their banks.
	gateClear := now >= colGateOther
	for rb := rbits; rb != 0; {
		r := bits.TrailingZeros64(rb)
		rb &^= 1 << uint(r)
		if gateClear {
			// With the bus gate clear, maturity of either class reduces to
			// one compare against the combined bound, which is also exactly
			// the value a non-matured rank folds into the running bound
			// (hGate = relHit > now, so min(hGate, ro) = relNext).
			if n := relNext[r]; now < n {
				if n < sc.u {
					sc.u = n
				}
				continue
			}
		} else if ro := relOther[r]; now < ro {
			// Bus-gated: no column command can issue anywhere, so only the
			// ACT/PRE class can mature; fold min(max(relHit, gate), ro).
			f := relHit[r]
			if colGateOther > f {
				f = colGateOther
			}
			if ro < f {
				f = ro
			}
			if f < sc.u {
				sc.u = f
			}
			continue
		}
		hGate := relHit[r]
		if colGateOther > hGate {
			hGate = colGateOther
		}
		ro := relOther[r]
		om := now >= ro
		if now >= hGate {
			// Cache usable only if every matured class has a winner on
			// record; a nil slot means an arrival filled the class after
			// the last walk, so walk to pick it up.
			if now < repUntil[r] && colRep[r] != nil && (!om || anyRep[r] != nil) {
				c := colRep[r]
				if sc.col == nil || c.seq < sc.col.seq {
					sc.col = c
				}
				if om {
					a := anyRep[r]
					if sc.any == nil || a.seq < sc.any.seq {
						sc.any, sc.anyCmd = a, anyCmdOf[r]
					}
				}
				continue
			}
			ch.scanRank(&sc, r, colGateOther, false)
			continue
		}
		// om holds here: the fast skips above caught every rank with
		// nothing matured.
		if a := anyRep[r]; now < repUntil[r] && a != nil {
			if sc.any == nil || a.seq < sc.any.seq {
				sc.any, sc.anyCmd = a, anyCmdOf[r]
			}
			continue
		}
		defer64 |= 1 << uint(r)
	}
	if sc.col == nil {
		// No ready row hit: the any-class decides, so walk the deferred
		// ranks now. A deferred rank cannot supply a col candidate (its
		// conservatively early hit bound is still in the future), so the
		// candidate set matches the eager walk exactly.
		if deferLR >= 0 {
			ch.scanRank(&sc, deferLR, colGateSame, true)
		}
		for rb := defer64; rb != 0; {
			r := bits.TrailingZeros64(rb)
			rb &^= 1 << uint(r)
			ch.scanRank(&sc, r, colGateOther, false)
		}
	}
	*until = sc.u
	if sc.colLR != nil {
		ch.issue(sc.colLR, colCmd, now)
		return true
	}
	if sc.col != nil {
		ch.issue(sc.col, colCmd, now)
		return true
	}
	if sc.any != nil {
		ch.issue(sc.any, sc.anyCmd, now)
		return true
	}
	return false
}

// scanCtx carries one issueFromBanks scan's direction-resolved inputs and
// running outputs across per-rank scanRank calls: the candidate slots
// (colLR/col/any with anyCmd), and u, the running fold of the earliest
// release time seen among non-issuable candidates.
type scanCtx struct {
	isWrite bool
	now     uint64
	u       uint64

	colLR, col, any *Txn
	anyCmd          cmd
}

// scanRank walks one rank's occupied banks for the FR-FCFS candidate
// classes, folding results into sc and rebuilding the rank's cached class
// releases. colGate is the bus-derived column-issue gate already resolved
// for this rank (same-rank vs cross-rank); isLast routes ready row hits
// into the colLR slot. The caller has already consulted the cached releases
// and only calls here when a class may have matured (or the cache was
// invalidated).
func (ch *channel) scanRank(sc *scanCtx, r int, colGate uint64, isLast bool) {
	now := sc.now
	lists, busy := ch.bankRead, ch.busyRead
	relHit, relOther, relNext := ch.relHitR, ch.relOtherR, ch.relNextR
	colRep, anyRep, anyCmdOf, repUntil := ch.colRepR, ch.anyRepR, ch.anyCmdR, ch.repUntilR
	if sc.isWrite {
		lists, busy = ch.bankWrite, ch.busyWrite
		relHit, relOther, relNext = ch.relHitW, ch.relOtherW, ch.relNextW
		colRep, anyRep, anyCmdOf, repUntil = ch.colRepW, ch.anyRepW, ch.anyCmdW, ch.repUntilW
	}
	tm := &ch.cfg.Timing
	rk := &ch.ranks[r]
	colNoBus := rk.refUntil
	if !sc.isWrite && rk.wtrUntil > colNoBus {
		colNoBus = rk.wtrUntil
	}
	actBase := rk.refUntil
	if rk.nextRankAct > actBase {
		actBase = rk.nextRankAct
	}
	if oldest := rk.actWindow[rk.actIdx]; oldest != 0 && oldest-1+tm.TFAW > actBase {
		actBase = oldest - 1 + tm.TFAW
	}
	// Visit the rank's occupied banks, rebuilding the cached releases, the
	// class representatives (chosen over bus-independent readiness — the
	// bus gate is rank-uniform and applied at use time), and join, the
	// earliest future cycle at which a not-yet-ready member could enter a
	// ready set and displace a representative.
	minCol, minPre, minAct := uint64(math.MaxUint64), uint64(math.MaxUint64), uint64(math.MaxUint64)
	var cRep, aRep *Txn
	aCmd := cmdNone
	join := uint64(math.MaxUint64)
	banksPer := ch.cfg.Geom.BanksPerRank
	lo, hi := r*banksPer, (r+1)*banksPer
	for w := lo >> 6; w <= (hi-1)>>6; w++ {
		word := busy[w]
		base := w << 6
		if base < lo {
			word &= ^uint64(0) << uint(lo-base)
		}
		if base+64 > hi {
			word &= ^uint64(0) >> uint(base+64-hi)
		}
		for word != 0 {
			bit := bits.TrailingZeros64(word)
			word &^= 1 << uint(bit)
			idx := base + bit
			bl := &lists[idx]
			bk := &ch.banks[idx]
			if bl.dirty {
				bl.recompute(bk)
			}
			if bk.open {
				if h := bl.hitRep; h != nil {
					if bk.nextCol < minCol {
						minCol = bk.nextCol
					}
					rel := colNoBus
					if bk.nextCol > rel {
						rel = bk.nextCol
					}
					if now >= rel {
						if cRep == nil || h.seq < cRep.seq {
							cRep = h
						}
					} else {
						if rel < join {
							join = rel
						}
						if colGate > rel {
							rel = colGate
						}
						if rel < sc.u {
							sc.u = rel
						}
					}
				}
				if p := bl.missRep; p != nil {
					if bk.nextPre < minPre {
						minPre = bk.nextPre
					}
					rel := rk.refUntil
					if bk.nextPre > rel {
						rel = bk.nextPre
					}
					if now >= rel {
						if aRep == nil || p.seq < aRep.seq {
							aRep, aCmd = p, cmdPre
						}
					} else {
						if rel < join {
							join = rel
						}
						if rel < sc.u {
							sc.u = rel
						}
					}
				}
			} else if a := bl.missRep; a != nil {
				if bk.nextAct < minAct {
					minAct = bk.nextAct
				}
				if rk.refPending {
					// ACT is withheld entirely while a refresh is due
					// (MaxUint64 release: the REF issue resets the scan
					// memo, so nothing to fold into until; the refPending
					// flip and the REF both invalidate the rep cache, so
					// nothing to fold into join either).
					continue
				}
				rel := actBase
				if bk.nextAct > rel {
					rel = bk.nextAct
				}
				if now >= rel {
					if aRep == nil || a.seq < aRep.seq {
						aRep, aCmd = a, cmdAct
					}
				} else {
					if rel < join {
						join = rel
					}
					if rel < sc.u {
						sc.u = rel
					}
				}
			}
		}
	}
	hRel := uint64(math.MaxUint64)
	if minCol != math.MaxUint64 {
		hRel = colNoBus
		if minCol > colNoBus {
			hRel = minCol
		}
	}
	other := uint64(math.MaxUint64)
	if minPre != math.MaxUint64 {
		other = rk.refUntil
		if minPre > other {
			other = minPre
		}
	}
	if minAct != math.MaxUint64 && !rk.refPending {
		aRel := actBase
		if minAct > aRel {
			aRel = minAct
		}
		if aRel < other {
			other = aRel
		}
	}
	relHit[r] = hRel
	relOther[r] = other
	if hRel < other {
		relNext[r] = hRel
	} else {
		relNext[r] = other
	}
	colRep[r], anyRep[r], anyCmdOf[r], repUntil[r] = cRep, aRep, aCmd, join
	// Fold the rank representatives into the scan's global candidate slots.
	// Per-bank gate-included readiness is (now >= colGate) && (now >= rel),
	// so applying the rank-uniform bus gate to the rank winner here picks
	// the same transaction the per-bank test would.
	if cRep != nil {
		if now >= colGate {
			if isLast {
				if sc.colLR == nil || cRep.seq < sc.colLR.seq {
					sc.colLR = cRep
				}
			} else if sc.col == nil || cRep.seq < sc.col.seq {
				sc.col = cRep
			}
		} else if colGate < sc.u {
			sc.u = colGate
		}
	}
	if aRep != nil {
		if sc.any == nil || aRep.seq < sc.any.seq {
			sc.any, sc.anyCmd = aRep, aCmd
		}
	}
}

// cmdReady returns the next command needed by t if it is issuable at now.
// When it is not (cmdNone), the second result is the exact earliest cycle
// the command becomes issuable assuming no scheduler state change — every
// gate is a `now >= timer` comparison, so the release time is the maximum
// of the failing timers (MaxUint64 when blocked on a state change such as a
// pending refresh, which resets the caller's memo when it issues).
func (ch *channel) cmdReady(t *Txn, now uint64) (cmd, uint64) {
	if t.colIssued {
		return cmdNone, math.MaxUint64
	}
	rk := &ch.ranks[t.Loc.Rank]
	bk := &rk.banks[t.Loc.Bank]
	until := now
	if now < rk.refUntil {
		until = rk.refUntil
	}
	if bk.open && bk.row == t.Loc.Row {
		// Column command.
		tm := &ch.cfg.Timing
		if bk.nextCol > until {
			until = bk.nextCol
		}
		var lead uint64
		isWrite := t.Op.Type == mem.Write
		if isWrite {
			lead = tm.TCWD
		} else {
			lead = tm.TCAS
			if rk.wtrUntil > until {
				until = rk.wtrUntil
			}
		}
		// The burst may start at now+lead; the shared bus allows it from
		// busNeed, so the command is issuable from busNeed-lead.
		if need := ch.busNeed(t.Loc.Rank, isWrite); need > lead && need-lead > until {
			until = need - lead
		}
		if now < until {
			return cmdNone, until
		}
		if isWrite {
			return cmdWrite, now
		}
		return cmdRead, now
	}
	if bk.open {
		// Row conflict: need PRE.
		if bk.nextPre > until {
			until = bk.nextPre
		}
		if now < until {
			return cmdNone, until
		}
		return cmdPre, now
	}
	// Closed: need ACT, subject to tRC/tRP (nextAct), tRRD, tFAW, and not
	// activating a rank that is about to refresh (avoids starving REF).
	if rk.refPending {
		return cmdNone, math.MaxUint64
	}
	if bk.nextAct > until {
		until = bk.nextAct
	}
	if rk.nextRankAct > until {
		until = rk.nextRankAct
	}
	if oldest := rk.actWindow[rk.actIdx]; oldest != 0 && oldest-1+ch.cfg.Timing.TFAW > until {
		until = oldest - 1 + ch.cfg.Timing.TFAW
	}
	if now < until {
		return cmdNone, until
	}
	return cmdAct, now
}

// busNeed returns the earliest burst-start cycle permitted by the shared
// data bus, including rank-switch and turnaround penalties.
func (ch *channel) busNeed(rnk int, isWrite bool) uint64 {
	need := ch.busFreeAt
	if ch.lastRank >= 0 && ch.lastRank != rnk {
		need += ch.cfg.Timing.TRTRS
	}
	if ch.lastRank >= 0 && ch.lastWasWr != isWrite {
		// Bus turnaround between read and write bursts.
		need += 2
	}
	return need
}

func (ch *channel) issue(t *Txn, c cmd, now uint64) {
	// ACT and PRE restructure the rank's candidate classes (a bank flips
	// between hit/miss and ACT service), so markBankDirty below drops the
	// cached class releases. A column command does not: it only raises
	// timers (nextCol, nextPre, wtrUntil, the bus) and removes a candidate,
	// every one of which leaves the cached releases conservatively early —
	// a stale entry can cause one spurious walk, which rebuilds it, but can
	// never hide a matured candidate. Keeping the entries valid spares both
	// directions' caches on the scheduler's most common command.
	tm := &ch.cfg.Timing
	rk := &ch.ranks[t.Loc.Rank]
	bk := &rk.banks[t.Loc.Bank]
	// Representatives have no safe stale direction, so any command on the
	// rank drops them (a column issue removes the representative itself and
	// raises wtrUntil for the other direction; ACT/PRE reshape the classes).
	ch.invalReps(t.Loc.Rank)
	switch c {
	case cmdAct:
		if ch.check != nil {
			ch.check.OnActivate(now, t.Loc.Rank, t.Loc.Bank, t.Loc.Row)
		}
		if ch.tr != nil {
			ch.tr.InstantArg2(ch.track, "ACT", "bank", int64(t.Loc.Bank), "row", int64(t.Loc.Row))
		}
		bk.open = true
		bk.row = t.Loc.Row
		bk.nextCol = now + tm.TRCD
		bk.nextPre = now + tm.TRAS
		bk.nextAct = now + tm.TRC
		rk.nextRankAct = now + tm.TRRD
		rk.actWindow[rk.actIdx] = now + 1
		rk.actIdx = (rk.actIdx + 1) % len(rk.actWindow)
		t.neededAct = true
		ch.markBankDirty(t.Loc.Rank, t.Loc.Bank)
		// The ACT creates candidates in both directions: row hits in the
		// freshly opened bank from nextCol = now+tRCD, and PREs for its
		// other-row transactions from nextPre = now+tRAS. Fold those bank
		// timers in as conservatively early class bounds instead of
		// invalidating — removed or postponed candidates only leave the
		// cache early (safe), so the rank is skipped until the new
		// candidates can actually have matured.
		ch.foldRank(t.Loc.Rank, now+tm.TRCD, now+tm.TRAS)
		ch.Stats.Activates.Inc()
	case cmdPre:
		if ch.check != nil {
			ch.check.OnPrecharge(now, t.Loc.Rank, t.Loc.Bank)
		}
		if ch.tr != nil {
			ch.tr.InstantArg2(ch.track, "PRE", "rank", int64(t.Loc.Rank), "bank", int64(t.Loc.Bank))
		}
		ch.precharge(rk, bk, now)
		ch.markBankDirty(t.Loc.Rank, t.Loc.Bank)
		// The PRE turns the bank's transactions into ACT candidates from
		// nextAct ≥ now+tRP; hit/PRE candidates it removes only leave the
		// cached bounds conservatively early.
		ch.foldRank(t.Loc.Rank, math.MaxUint64, now+tm.TRP)
	case cmdRead, cmdWrite:
		if ch.check != nil {
			ch.check.OnColumn(now, t.Loc.Rank, t.Loc.Bank, t.Loc.Row, c == cmdWrite)
		}
		if ch.tr != nil {
			name := "RD"
			if c == cmdWrite {
				name = "WR"
			}
			ch.tr.InstantArg2(ch.track, name, "rank", int64(t.Loc.Rank), "bank", int64(t.Loc.Bank))
		}
		var burstStart uint64
		if c == cmdRead {
			burstStart = now + tm.TCAS
			if pre := now + tm.TRTP; pre > bk.nextPre {
				bk.nextPre = pre
			}
			ch.Stats.Reads.Inc()
			ch.Stats.KindReads[t.Op.Kind].Inc()
		} else {
			burstStart = now + tm.TCWD
			if pre := burstStart + tm.TBurst + tm.TWR; pre > bk.nextPre {
				bk.nextPre = pre
			}
			rk.wtrUntil = burstStart + tm.TBurst + tm.TWTR
			ch.Stats.Writes.Inc()
			ch.Stats.KindWrites[t.Op.Kind].Inc()
		}
		bk.nextCol = now + tm.TCCD
		ch.busFreeAt = burstStart + tm.TBurst
		ch.lastRank = t.Loc.Rank
		ch.lastWasWr = c == cmdWrite
		t.colIssued = true
		t.RowHit = !t.neededAct
		if t.RowHit {
			ch.Stats.RowHits.Inc()
		} else {
			ch.Stats.RowMisses.Inc()
		}
		t.Done = burstStart + tm.TBurst
		ch.removeFromQueue(t)
		if len(ch.pending) == 0 || t.Done < ch.nextDone {
			ch.nextDone = t.Done
		}
		ch.pending = append(ch.pending, t)
	}
}

// markBankDirty invalidates both directions' representatives for a bank
// whose open-row state just changed. The rank-level release caches are NOT
// touched here: callers either fold the new candidates' conservatively
// early bounds in (foldRank, for ACT/PRE) or invalidate outright
// (invalRank, for REF, whose completion can re-expose candidates earlier
// than any cached bound).
func (ch *channel) markBankDirty(r, b int) {
	i := r*ch.cfg.Geom.BanksPerRank + b
	ch.bankRead[i].dirty = true
	ch.bankWrite[i].dirty = true
}

// foldRank lowers both directions' cached class releases for a rank to the
// given conservatively early bounds (hit, other); MaxUint64 leaves a class
// untouched. Folding a too-early bound costs at most a spurious walk that
// rebuilds the exact entry; an invalid entry (zero) stays invalid.
func (ch *channel) foldRank(r int, hit, other uint64) {
	lo := hit
	if other < lo {
		lo = other
	}
	if hit < ch.relHitR[r] {
		ch.relHitR[r] = hit
	}
	if hit < ch.relHitW[r] {
		ch.relHitW[r] = hit
	}
	if other < ch.relOtherR[r] {
		ch.relOtherR[r] = other
	}
	if other < ch.relOtherW[r] {
		ch.relOtherW[r] = other
	}
	if lo < ch.relNextR[r] {
		ch.relNextR[r] = lo
	}
	if lo < ch.relNextW[r] {
		ch.relNextW[r] = lo
	}
}

// invalRank drops both directions' cached release times for a rank: a zero
// relOther always reads as matured, forcing the walk that rebuilds both
// values. The representatives go with them.
func (ch *channel) invalRank(r int) {
	ch.relOtherR[r] = 0
	ch.relOtherW[r] = 0
	ch.relNextR[r] = 0
	ch.relNextW[r] = 0
	ch.invalReps(r)
}

// invalReps drops both directions' cached class representatives for a rank
// (zero repUntil always reads as expired). Unlike the release times, a
// stale representative could issue a timing-violating or departed command,
// so every event that mutates rank-local scheduler state must call this.
func (ch *channel) invalReps(r int) {
	ch.repUntilR[r] = 0
	ch.repUntilW[r] = 0
}

func (ch *channel) precharge(rk *rank, bk *bank, now uint64) {
	bk.open = false
	if na := now + ch.cfg.Timing.TRP; na > bk.nextAct {
		bk.nextAct = na
	}
	ch.Stats.Precharges.Inc()
}

func (ch *channel) removeFromQueue(t *Txn) {
	q := &ch.readQ
	bl := &ch.bankRead[ch.bankIdx(t)]
	if t.Op.Type == mem.Write {
		q = &ch.writeQ
		bl = &ch.bankWrite[ch.bankIdx(t)]
	}
	// Under FR-FCFS the flat queues are only consulted for occupancy (the
	// scan runs over the bank buckets and breaks ties by Txn.seq), so a
	// swap-remove avoids the O(queue) shift; FCFS serves the queue head in
	// order and needs the ordered removal.
	for i, x := range *q {
		if x == t {
			if ch.cfg.Sched == FCFS {
				*q = append((*q)[:i], (*q)[i+1:]...)
			} else {
				last := len(*q) - 1
				(*q)[i] = (*q)[last]
				(*q)[last] = nil
				*q = (*q)[:last]
			}
			break
		}
	}
	for i, x := range bl.txns {
		if x == t {
			bl.txns = append(bl.txns[:i], bl.txns[i+1:]...)
			break
		}
	}
	bl.dirty = true
	if len(bl.txns) == 0 {
		i := ch.bankIdx(t)
		busy := ch.busyRead
		if t.Op.Type == mem.Write {
			busy = ch.busyWrite
		}
		busy[i>>6] &^= 1 << (uint(i) & 63)
	}
	if t.Op.Type == mem.Write {
		ch.rankNWrite[t.Loc.Rank]--
		if ch.rankNWrite[t.Loc.Rank] == 0 {
			ch.rankBusyWrite &^= 1 << uint(t.Loc.Rank)
		}
	} else {
		ch.rankNRead[t.Loc.Rank]--
		if ch.rankNRead[t.Loc.Rank] == 0 {
			ch.rankBusyRead &^= 1 << uint(t.Loc.Rank)
		}
	}
}

func (ch *channel) bankIdx(t *Txn) int {
	return t.Loc.Rank*ch.cfg.Geom.BanksPerRank + t.Loc.Bank
}

// bankInsert appends an arriving transaction to its bank bucket, updating
// the class representatives in place when they are clean: the newcomer is
// the youngest member, so it only fills a class that had no representative.
func (ch *channel) bankInsert(t *Txn) {
	i := ch.bankIdx(t)
	bl, busy := &ch.bankRead[i], ch.busyRead
	if t.Op.Type == mem.Write {
		bl, busy = &ch.bankWrite[i], ch.busyWrite
		ch.rankNWrite[t.Loc.Rank]++
		ch.rankBusyWrite |= 1 << uint(t.Loc.Rank)
	} else {
		ch.rankNRead[t.Loc.Rank]++
		ch.rankBusyRead |= 1 << uint(t.Loc.Rank)
	}
	bl.txns = append(bl.txns, t)
	busy[i>>6] |= 1 << (uint(i) & 63)
	// Fold the newcomer's class release into the rank's cached releases
	// instead of invalidating them: the arrival adds exactly one candidate,
	// and lowering the matching class bound to the bank timer alone (a
	// conservatively early stand-in for the full rank-level gate) keeps the
	// cache sound — at worst one spurious walk rebuilds the exact entry.
	relHit, relOther, relNext := ch.relHitR, ch.relOtherR, ch.relNextR
	if t.Op.Type == mem.Write {
		relHit, relOther, relNext = ch.relHitW, ch.relOtherW, ch.relNextW
	}
	bk := &ch.ranks[t.Loc.Rank].banks[t.Loc.Bank]
	fold := uint64(0)
	if bk.open && t.Loc.Row == bk.row {
		fold = bk.nextCol
		if bk.nextCol < relHit[t.Loc.Rank] {
			relHit[t.Loc.Rank] = bk.nextCol
		}
	} else if bk.open {
		fold = bk.nextPre
		if bk.nextPre < relOther[t.Loc.Rank] {
			relOther[t.Loc.Rank] = bk.nextPre
		}
	} else {
		fold = bk.nextAct
		if bk.nextAct < relOther[t.Loc.Rank] {
			relOther[t.Loc.Rank] = bk.nextAct
		}
	}
	if fold < relNext[t.Loc.Rank] {
		relNext[t.Loc.Rank] = fold
	}
	if bl.dirty {
		return
	}
	if bk.open && t.Loc.Row == bk.row {
		if bl.hitRep == nil {
			bl.hitRep = t
		}
	} else if bl.missRep == nil {
		bl.missRep = t
	}
}
