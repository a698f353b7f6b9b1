package dram

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"repro/internal/addrmap"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/stats"
)

// Config describes a memory system instance. Every channel schedules
// FR-FCFS (first-ready, first-come-first-served with rank batching), the
// policy assumed by the paper's USIMM methodology.
type Config struct {
	Timing Timing
	Geom   addrmap.Geometry
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
	// seq is the channel-local arrival order that keeps the candidate
	// lists in the order an oldest-first scan of the queue would meet them.
	seq uint64
}

// Latency returns the queueing+service latency in DRAM cycles.
func (t *Txn) Latency() uint64 { return t.Done - t.Arrival }

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

// bankList holds one bank's queued transactions of one direction in arrival
// order, plus its two class representatives: hitRep is the oldest
// transaction targeting the open row, missRep the oldest needing a PRE (open
// bank) or ACT (closed bank). Every scheduler gate is bank- or rank-level and
// a queue has a uniform direction, so same-bank same-class transactions are
// interchangeable and FR-FCFS can only ever pick one of these two.
type bankList struct {
	txns    []*Txn
	hitRep  *Txn
	missRep *Txn
}

// reps returns the bank's class representatives against its current row
// state.
func (bl *bankList) reps(bk *bank) (hit, miss *Txn) {
	if !bk.open {
		if len(bl.txns) > 0 {
			miss = bl.txns[0]
		}
		return nil, miss
	}
	for _, t := range bl.txns {
		if t.Loc.Row == bk.row {
			if hit == nil {
				hit = t
			}
		} else if miss == nil {
			miss = t
		}
		if hit != nil && miss != nil {
			break
		}
	}
	return hit, miss
}

// queue is one direction's transaction queue. The transactions live only in
// per-(rank,bank) lists; hits and miss hold every bank's hitRep and missRep
// in arrival order, which makes them exactly the candidates an oldest-first
// scan of the whole queue could pick, in the order it would meet them. They
// are kept current eagerly: an arrival can only fill an empty class, so it
// appends; a column command hands its hit slot to the next same-row
// transaction; an ACT or PRE recomputes its bank's pair in both directions.
type queue struct {
	n, cap   int // occupancy and capacity
	banks    []bankList
	hits     []cand
	miss     []cand
	rankHits []int // hits entries per rank
}

// cand is a class representative as the scan sees it: its arrival order and
// its bank, which is all its readiness depends on. Holding no pointer, the
// lists shift without write barriers and the scan never loads a Txn.
type cand struct {
	seq  uint64
	bank int32 // index into channel.banks and queue.banks
	rank int32
}

// setReps installs bank i's class representatives, moving them in the
// arrival-ordered candidate lists.
func (q *queue) setReps(i int, hit, miss *Txn) {
	bl := &q.banks[i]
	if hit != bl.hitRep {
		if bl.hitRep != nil {
			q.hits = removeCand(q.hits, bl.hitRep.seq)
			q.rankHits[bl.hitRep.Loc.Rank]--
		}
		if hit != nil {
			q.hits = insertCand(q.hits, cand{hit.seq, int32(i), int32(hit.Loc.Rank)})
			q.rankHits[hit.Loc.Rank]++
		}
		bl.hitRep = hit
	}
	if miss != bl.missRep {
		if bl.missRep != nil {
			q.miss = removeCand(q.miss, bl.missRep.seq)
		}
		if miss != nil {
			q.miss = insertCand(q.miss, cand{miss.seq, int32(i), int32(miss.Loc.Rank)})
		}
		bl.missRep = miss
	}
}

func removeCand(list []cand, seq uint64) []cand {
	i := slices.IndexFunc(list, func(c cand) bool { return c.seq == seq })
	return slices.Delete(list, i, i+1)
}

// insertCand inserts c at its arrival position; an arrival, the youngest
// transaction, lands at the end at once.
func insertCand(list []cand, c cand) []cand {
	list = append(list, c)
	i := len(list) - 1
	for ; i > 0 && list[i-1].seq > c.seq; i-- {
		list[i] = list[i-1]
	}
	list[i] = c
	return list
}

// channel is one DDR channel: queues, banks, bus, and scheduler state.
type channel struct {
	cfg   Config
	ranks []rank
	banks []bank // contiguous bank states; rank.banks alias into it

	reads, writes queue
	seq           uint64 // arrival counter feeding Txn.seq

	// pending holds issued transactions until their data burst lands. The
	// data bus serializes bursts, so at most one lands per cycle and the
	// delivery order is fixed. nextDone is the exact minimum Done over
	// pending (maintained on append, recomputed on delivery; Done never
	// changes once set), so the delivery scan runs only on cycles a burst
	// actually lands.
	pending  []*Txn
	nextDone uint64

	busFreeAt uint64
	lastRank  int
	lastWasWr bool
	draining  bool

	// nextTry memoizes a failed scheduler scan: the exact earliest cycle
	// any queued transaction's next command becomes issuable unless the
	// scheduler state changes first. Every gate compares now against an
	// absolute timer over state that only changes when a command issues
	// (bank/bus/rank timers, lastRank) or a transaction arrives, so a scan
	// that finds nothing issuable folds each candidate's release into it;
	// issues reset it to 0 (always scan) and arrivals lower it to their own
	// release. This skips the FR-FCFS scan on the majority of ticks.
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

	// check, when attached, observes every issued command: the JEDEC timing
	// Checker, or in this package's tests a recorder wrapped around one.
	check monitor

	// tr, when attached, receives one instant event per issued DRAM
	// command on this channel's trace track.
	tr    *obs.Tracer
	track obs.TrackID

	Stats ChannelStats
}

// monitor observes a channel's command stream; *Checker implements it.
type monitor interface {
	OnActivate(now uint64, rank, bank, row int)
	OnPrecharge(now uint64, rank, bank int)
	OnColumn(now uint64, rank, bank, row int, isWrite bool)
	OnRefresh(now uint64, rank int)
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
	g := cfg.Geom
	nb := g.RanksPerChan * g.BanksPerRank
	newQueue := func(capacity int) queue {
		reps := min(nb, capacity)
		return queue{
			cap:      capacity,
			banks:    make([]bankList, nb),
			hits:     make([]cand, 0, reps),
			miss:     make([]cand, 0, reps),
			rankHits: make([]int, g.RanksPerChan),
		}
	}
	for c := 0; c < g.Channels; c++ {
		ch := &channel{cfg: cfg, lastRank: -1, reads: newQueue(cfg.ReadQ), writes: newQueue(cfg.WriteQ)}
		ch.ranks = make([]rank, g.RanksPerChan)
		// One contiguous backing array for all banks keeps the scan's
		// bank-state loads on a handful of cache lines.
		ch.banks = make([]bank, nb)
		for r := range ch.ranks {
			ch.ranks[r].banks = ch.banks[r*g.BanksPerRank : (r+1)*g.BanksPerRank]
			// Stagger refreshes across ranks to avoid lockstep stalls.
			ch.ranks[r].nextRef = cfg.Timing.TREFI * uint64(r+1) / uint64(g.RanksPerChan+1)
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
		out[i] = NewChecker(m.cfg.Timing, m.cfg.Geom.RanksPerChan, m.cfg.Geom.BanksPerRank)
		ch.check = out[i]
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

// queue returns the channel's read or write queue.
func (ch *channel) queue(isWrite bool) *queue {
	if isWrite {
		return &ch.writes
	}
	return &ch.reads
}

// CanEnqueue reports whether channel c has room for a transaction of the
// given type.
func (m *Memory) CanEnqueue(c int, t mem.AccessType) bool {
	q := m.channels[c].queue(t == mem.Write)
	return q.n < q.cap
}

// QueueLen returns the current occupancy of channel c's queue for type t.
func (m *Memory) QueueLen(c int, t mem.AccessType) int {
	return m.channels[c].queue(t == mem.Write).n
}

// Enqueue adds a transaction; it returns false (and does nothing) if the
// target queue is full. The transaction's Loc.Channel selects the channel.
func (m *Memory) Enqueue(t *Txn) bool {
	ch := m.channels[t.Loc.Channel]
	isWrite := t.Op.Type == mem.Write
	q := ch.queue(isWrite)
	if q.n >= q.cap {
		return false
	}
	q.n++
	t.Arrival = m.now
	ch.seq++
	t.seq = ch.seq
	i := ch.bankIdx(t)
	bl := &q.banks[i]
	bl.txns = append(bl.txns, t)
	// The newcomer can only fill an empty class. It changes no other
	// candidate's release, so folding in its own keeps the scan memo exact.
	c := cand{t.seq, int32(i), int32(t.Loc.Rank)}
	if bk := &ch.banks[i]; bk.open && bk.row == t.Loc.Row {
		if bl.hitRep == nil {
			q.setReps(i, t, bl.missRep)
		}
		gateLast, gateOther := ch.busGates(isWrite)
		ch.nextTry = min(ch.nextTry, ch.hitRelease(c, isWrite, gateLast, gateOther))
	} else {
		if bl.missRep == nil {
			q.setReps(i, bl.hitRep, t)
		}
		ch.nextTry = min(ch.nextTry, ch.missRelease(c))
	}
	return true
}

// Pending returns the total number of in-flight and queued transactions.
func (m *Memory) Pending() int {
	n := 0
	for _, ch := range m.channels {
		n += ch.reads.n + ch.writes.n + len(ch.pending)
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
		if ch.reads.n+ch.writes.n > 0 {
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
	if ch.writes.n >= ch.cfg.HighWM {
		ch.draining = true
	} else if ch.writes.n <= ch.cfg.LowWM {
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
	primaryWrites := ch.draining || ch.reads.n == 0
	if ch.issueFrom(primaryWrites, now, &until) || ch.issueFrom(!primaryWrites, now, &until) {
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
					ch.precharge(now, r, b)
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

// issueFrom applies FR-FCFS to one queue: a ready row hit in the rank that
// last used the data bus goes first (rank batching amortizes the tRTRS
// switch penalty, as commercial controllers do), then the oldest ready row
// hit, then the oldest transaction whose PRE or ACT is ready. The candidate
// lists are in arrival order, so one pass over each is an oldest-first scan
// of the whole queue. When nothing is issuable, *until is lowered to the
// earliest cycle any candidate becomes ready with the scheduler state
// unchanged. Returns true if a command was issued.
func (ch *channel) issueFrom(isWrite bool, now uint64, until *uint64) bool {
	q := ch.queue(isWrite)
	if q.n == 0 {
		return false
	}
	// The data-bus gate has one value for the last rank and one, never
	// earlier, for every other rank. While both are closed no hit can go, so
	// the hits are only folded into *until, and only if no miss issues.
	gateLast, gateOther := ch.busGates(isWrite)
	if now >= gateLast {
		if t := ch.pickHit(q, isWrite, now, gateLast, gateOther, until); t != nil {
			ch.column(t, now)
			return true
		}
	}
	for _, c := range q.miss {
		rel := ch.missRelease(c)
		if rel > now {
			*until = min(*until, rel)
			continue
		}
		t := q.banks[c.bank].missRep
		if ch.banks[c.bank].open {
			ch.precharge(now, t.Loc.Rank, t.Loc.Bank)
		} else {
			ch.activate(t, now)
		}
		return true
	}
	if now < gateLast {
		ch.pickHit(q, isWrite, now, gateLast, gateOther, until)
	}
	return false
}

// pickHit returns the row hit FR-FCFS issues now, or nil after folding the
// release of every hit into *until. It stops early once the rest of the
// list cannot change the outcome: no hit is released before gateLast, and
// once every last-rank hit has been met, the oldest ready hit of another
// rank wins and none is released before gateOther.
func (ch *channel) pickHit(q *queue, isWrite bool, now, gateLast, gateOther uint64, until *uint64) *Txn {
	lastLeft := 0
	if ch.lastRank >= 0 {
		lastLeft = q.rankHits[ch.lastRank]
	}
	oldest := -1
	for _, c := range q.hits {
		if *until <= gateLast || lastLeft == 0 && (oldest >= 0 || *until <= gateOther) {
			break
		}
		last := int(c.rank) == ch.lastRank
		if last {
			lastLeft--
		} else if oldest >= 0 {
			continue
		}
		if rel := ch.hitRelease(c, isWrite, gateLast, gateOther); rel > now {
			*until = min(*until, rel)
		} else if last {
			return q.banks[c.bank].hitRep
		} else {
			oldest = int(c.bank)
		}
	}
	if oldest < 0 {
		return nil
	}
	return q.banks[oldest].hitRep
}

// busGates returns the earliest cycle a column command of the given
// direction clears the shared data bus — its burst starts tCAS or tCWD
// later and must follow the previous burst, plus two turnaround cycles on a
// read/write switch — for the rank that last used the bus and, with the
// tRTRS rank-switch penalty, for every other rank.
func (ch *channel) busGates(isWrite bool) (last, other uint64) {
	tm := &ch.cfg.Timing
	lead := tm.TCAS
	if isWrite {
		lead = tm.TCWD
	}
	last, other = ch.busFreeAt, ch.busFreeAt
	if ch.lastRank >= 0 {
		other += tm.TRTRS
		if ch.lastWasWr != isWrite {
			last += 2
			other += 2
		}
	}
	return max(last, lead) - lead, max(other, lead) - lead
}

// hitRelease returns the exact earliest cycle row hit c's column command
// can issue if the scheduler state does not change first: its bank's
// tRCD/tCCD, its rank's refresh and, for reads, tWTR, and the data-bus gate
// busGates gave for its rank. Every gate is a `now >= timer` comparison, so
// this is the maximum of the timers involved.
func (ch *channel) hitRelease(c cand, isWrite bool, gateLast, gateOther uint64) uint64 {
	gate := gateOther
	if int(c.rank) == ch.lastRank {
		gate = gateLast
	}
	rk := &ch.ranks[c.rank]
	rel := max(gate, rk.refUntil, ch.banks[c.bank].nextCol)
	if !isWrite {
		rel = max(rel, rk.wtrUntil)
	}
	return rel
}

// missRelease returns the earliest cycle the PRE (open bank) or ACT (closed
// bank) a row miss needs can issue. ACT is subject to tRC/tRP (nextAct),
// tRRD and tFAW, and is withheld entirely (MaxUint64) from a rank whose
// refresh is due, so the refresh is not starved; the REF issue resets the
// scan memo.
func (ch *channel) missRelease(c cand) uint64 {
	rk := &ch.ranks[c.rank]
	bk := &ch.banks[c.bank]
	if bk.open {
		return max(rk.refUntil, bk.nextPre)
	}
	if rk.refPending {
		return math.MaxUint64
	}
	rel := max(rk.refUntil, bk.nextAct, rk.nextRankAct)
	if oldest := rk.actWindow[rk.actIdx]; oldest != 0 {
		rel = max(rel, oldest-1+ch.cfg.Timing.TFAW)
	}
	return rel
}

func (ch *channel) activate(t *Txn, now uint64) {
	if ch.check != nil {
		ch.check.OnActivate(now, t.Loc.Rank, t.Loc.Bank, t.Loc.Row)
	}
	if ch.tr != nil {
		ch.tr.InstantArg2(ch.track, "ACT", "bank", int64(t.Loc.Bank), "row", int64(t.Loc.Row))
	}
	tm := &ch.cfg.Timing
	rk := &ch.ranks[t.Loc.Rank]
	bk := &rk.banks[t.Loc.Bank]
	bk.open = true
	bk.row = t.Loc.Row
	bk.nextCol = now + tm.TRCD
	bk.nextPre = now + tm.TRAS
	bk.nextAct = now + tm.TRC
	rk.nextRankAct = now + tm.TRRD
	rk.actWindow[rk.actIdx] = now + 1
	rk.actIdx = (rk.actIdx + 1) % len(rk.actWindow)
	t.neededAct = true
	ch.resetReps(ch.bankIdx(t))
	ch.Stats.Activates.Inc()
}

func (ch *channel) precharge(now uint64, r, b int) {
	if ch.check != nil {
		ch.check.OnPrecharge(now, r, b)
	}
	if ch.tr != nil {
		ch.tr.InstantArg2(ch.track, "PRE", "rank", int64(r), "bank", int64(b))
	}
	bk := &ch.ranks[r].banks[b]
	bk.open = false
	bk.nextAct = max(bk.nextAct, now+ch.cfg.Timing.TRP)
	ch.resetReps(r*ch.cfg.Geom.BanksPerRank + b)
	ch.Stats.Precharges.Inc()
}

// resetReps recomputes bank i's class representatives in both directions
// after an ACT or PRE changed its open row.
func (ch *channel) resetReps(i int) {
	for _, q := range [2]*queue{&ch.reads, &ch.writes} {
		hit, miss := q.banks[i].reps(&ch.banks[i])
		q.setReps(i, hit, miss)
	}
}

// column issues t's read or write, which completes the transaction: it
// leaves the queue, and the next same-row transaction in its bank, the
// oldest one left, takes over the hit slot.
func (ch *channel) column(t *Txn, now uint64) {
	isWrite := t.Op.Type == mem.Write
	if ch.check != nil {
		ch.check.OnColumn(now, t.Loc.Rank, t.Loc.Bank, t.Loc.Row, isWrite)
	}
	if ch.tr != nil {
		name := "RD"
		if isWrite {
			name = "WR"
		}
		ch.tr.InstantArg2(ch.track, name, "rank", int64(t.Loc.Rank), "bank", int64(t.Loc.Bank))
	}
	tm := &ch.cfg.Timing
	rk := &ch.ranks[t.Loc.Rank]
	bk := &rk.banks[t.Loc.Bank]
	var burstStart uint64
	if isWrite {
		burstStart = now + tm.TCWD
		bk.nextPre = max(bk.nextPre, burstStart+tm.TBurst+tm.TWR)
		rk.wtrUntil = burstStart + tm.TBurst + tm.TWTR
		ch.Stats.Writes.Inc()
		ch.Stats.KindWrites[t.Op.Kind].Inc()
	} else {
		burstStart = now + tm.TCAS
		bk.nextPre = max(bk.nextPre, now+tm.TRTP)
		ch.Stats.Reads.Inc()
		ch.Stats.KindReads[t.Op.Kind].Inc()
	}
	bk.nextCol = now + tm.TCCD
	ch.busFreeAt = burstStart + tm.TBurst
	ch.lastRank = t.Loc.Rank
	ch.lastWasWr = isWrite
	t.RowHit = !t.neededAct
	if t.RowHit {
		ch.Stats.RowHits.Inc()
	} else {
		ch.Stats.RowMisses.Inc()
	}
	t.Done = burstStart + tm.TBurst

	q := ch.queue(isWrite)
	q.n--
	b := ch.bankIdx(t)
	bl := &q.banks[b]
	i := slices.Index(bl.txns, t)
	bl.txns = slices.Delete(bl.txns, i, i+1)
	var next *Txn
	for _, x := range bl.txns[i:] {
		if x.Loc.Row == t.Loc.Row {
			next = x
			break
		}
	}
	q.setReps(b, next, bl.missRep)

	if len(ch.pending) == 0 || t.Done < ch.nextDone {
		ch.nextDone = t.Done
	}
	ch.pending = append(ch.pending, t)
}

func (ch *channel) bankIdx(t *Txn) int {
	return t.Loc.Rank*ch.cfg.Geom.BanksPerRank + t.Loc.Bank
}
