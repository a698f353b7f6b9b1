package dram

import (
	"repro/internal/addrmap"
	"repro/internal/mem"
)

// This file is a naive FR-FCFS reference scheduler, the oracle the
// differential tests hold the production scheduler to. It shares only the
// Config, Timing and ChannelStats types with dram.go. Its bank, rank and bus
// state are its own, and every cycle it scans each queue flat, in arrival
// order, with no memo, bucket or cache of any kind.

// issued is one DRAM command as both schedulers report it.
type issued struct {
	now             uint64
	ch              int
	name            string // ACT, PRE, RD, WR or REF
	rank, bank, row int
}

type refTxn struct {
	id      int
	write   bool
	kind    mem.Kind
	loc     addrmap.Location
	arrival uint64
	done    uint64
	needAct bool
	rowHit  bool
}

type refBank struct {
	open                      bool
	row                       int
	nextAct, nextCol, nextPre uint64
}

type refRank struct {
	banks      []refBank
	acts       []uint64 // issue cycles of the ACTs still inside the tFAW window
	nextAct    uint64   // tRRD
	wtrUntil   uint64
	nextRef    uint64
	refUntil   uint64
	refPending bool
}

// refSeen counts the corner cases a run exercised, so tests can prove a
// seed corpus covers them.
type refSeen struct {
	drainWrites  int // write column commands issued in drain mode
	drainRefresh int // refresh PRE/REF issued in drain mode
	actsWithheld int // otherwise ready ACTs held back by a pending refresh
}

type refChannel struct {
	cfg       Config
	id        int
	ranks     []refRank
	reads     []*refTxn // queued, in arrival order
	writes    []*refTxn
	inflight  []*refTxn
	busFree   uint64
	lastRank  int
	lastWrite bool
	draining  bool
	stats     ChannelStats
	seen      refSeen
	log       *[]issued
}

type refMemory struct {
	cfg   Config
	now   uint64
	chans []*refChannel
	log   []issued
}

func newRefMemory(cfg Config) *refMemory {
	m := &refMemory{cfg: cfg}
	g := cfg.Geom
	for c := 0; c < g.Channels; c++ {
		ch := &refChannel{cfg: cfg, id: c, lastRank: -1, log: &m.log}
		ch.ranks = make([]refRank, g.RanksPerChan)
		for r := range ch.ranks {
			ch.ranks[r].banks = make([]refBank, g.BanksPerRank)
			ch.ranks[r].nextRef = cfg.Timing.TREFI * uint64(r+1) / uint64(g.RanksPerChan+1)
		}
		m.chans = append(m.chans, ch)
	}
	return m
}

func (m *refMemory) enqueue(t *refTxn) bool {
	ch := m.chans[t.loc.Channel]
	q, capacity := &ch.reads, m.cfg.ReadQ
	if t.write {
		q, capacity = &ch.writes, m.cfg.WriteQ
	}
	if len(*q) >= capacity {
		return false
	}
	t.arrival = m.now
	*q = append(*q, t)
	return true
}

func (m *refMemory) pending() int {
	n := 0
	for _, ch := range m.chans {
		n += len(ch.reads) + len(ch.writes) + len(ch.inflight)
	}
	return n
}

func (m *refMemory) tick(done []*refTxn) []*refTxn {
	for _, ch := range m.chans {
		done = ch.tick(m.now, done)
	}
	m.now++
	return done
}

func (ch *refChannel) tick(now uint64, done []*refTxn) []*refTxn {
	kept := ch.inflight[:0]
	for _, t := range ch.inflight {
		if t.done > now {
			kept = append(kept, t)
			continue
		}
		if !t.write {
			ch.stats.ReadLat.Observe(float64(t.done - t.arrival))
		}
		done = append(done, t)
	}
	ch.inflight = kept
	if ch.busFree > now {
		ch.stats.BusBusy.Inc()
	}
	if len(ch.writes) >= ch.cfg.HighWM {
		ch.draining = true
	} else if len(ch.writes) <= ch.cfg.LowWM {
		ch.draining = false
	}
	// One command per cycle: refresh first, then the primary queue (writes
	// while draining or when no read waits), then the other one.
	if ch.refresh(now) {
		return done
	}
	primary := ch.draining || len(ch.reads) == 0
	if !ch.schedule(primary, now) {
		ch.schedule(!primary, now)
	}
	return done
}

// refresh flags every rank whose refresh is due, then drains the first
// such rank with a ready open bank (PRE) or, once all its banks are
// closed, refreshes it (REF).
func (ch *refChannel) refresh(now uint64) bool {
	tm := &ch.cfg.Timing
	for r := range ch.ranks {
		if rk := &ch.ranks[r]; !rk.refPending && now >= rk.nextRef {
			rk.refPending = true
		}
	}
	for r := range ch.ranks {
		rk := &ch.ranks[r]
		if !rk.refPending || now < rk.refUntil {
			continue
		}
		anyOpen := false
		for b := range rk.banks {
			if !rk.banks[b].open {
				continue
			}
			anyOpen = true
			if now >= rk.banks[b].nextPre {
				ch.precharge(now, r, b)
				if ch.draining {
					ch.seen.drainRefresh++
				}
				return true
			}
		}
		if anyOpen {
			continue
		}
		ch.record(now, "REF", r, 0, 0)
		rk.refUntil = now + tm.TRFC
		rk.nextRef += tm.TREFI
		rk.refPending = false
		for b := range rk.banks {
			rk.banks[b].nextAct = max(rk.banks[b].nextAct, rk.refUntil)
		}
		ch.stats.Refreshes.Inc()
		if ch.draining {
			ch.seen.drainRefresh++
		}
		return true
	}
	return false
}

// schedule is FR-FCFS over one queue: a ready row hit in the rank that last
// used the data bus goes first, then the oldest ready row hit, then the
// oldest transaction whose PRE or ACT is ready.
func (ch *refChannel) schedule(write bool, now uint64) bool {
	q := ch.reads
	if write {
		q = ch.writes
	}
	var hit, miss *refTxn
	for _, t := range q {
		bk := &ch.ranks[t.loc.Rank].banks[t.loc.Bank]
		if bk.open && bk.row == t.loc.Row {
			if !ch.columnReady(t, now) {
				continue
			}
			if t.loc.Rank == ch.lastRank {
				hit = t
				break
			}
			if hit == nil {
				hit = t
			}
		} else if miss == nil && ch.missReady(t, now) {
			miss = t
		}
	}
	switch {
	case hit != nil:
		ch.column(hit, now)
	case miss == nil:
		return false
	case ch.ranks[miss.loc.Rank].banks[miss.loc.Bank].open:
		ch.precharge(now, miss.loc.Rank, miss.loc.Bank)
	default:
		ch.activate(miss, now)
	}
	return true
}

func (ch *refChannel) columnReady(t *refTxn, now uint64) bool {
	tm := &ch.cfg.Timing
	rk := &ch.ranks[t.loc.Rank]
	bk := &rk.banks[t.loc.Bank]
	if now < rk.refUntil || now < bk.nextCol || (!t.write && now < rk.wtrUntil) {
		return false
	}
	// The data burst starts tCAS (read) or tCWD (write) after the command
	// and must clear the previous burst, plus tRTRS after another rank's
	// and two cycles of read/write turnaround.
	start := now + tm.TCAS
	if t.write {
		start = now + tm.TCWD
	}
	busFree := ch.busFree
	if ch.lastRank >= 0 && ch.lastRank != t.loc.Rank {
		busFree += tm.TRTRS
	}
	if ch.lastRank >= 0 && ch.lastWrite != t.write {
		busFree += 2
	}
	return start >= busFree
}

func (ch *refChannel) missReady(t *refTxn, now uint64) bool {
	rk := &ch.ranks[t.loc.Rank]
	bk := &rk.banks[t.loc.Bank]
	if now < rk.refUntil {
		return false
	}
	if bk.open {
		return now >= bk.nextPre
	}
	if now < bk.nextAct || now < rk.nextAct {
		return false
	}
	inWindow := 0
	for _, a := range rk.acts {
		if now < a+ch.cfg.Timing.TFAW {
			inWindow++
		}
	}
	if inWindow >= 4 {
		return false
	}
	// A rank whose refresh is due gets no ACT, so it can drain.
	if rk.refPending {
		ch.seen.actsWithheld++
		return false
	}
	return true
}

func (ch *refChannel) activate(t *refTxn, now uint64) {
	tm := &ch.cfg.Timing
	rk := &ch.ranks[t.loc.Rank]
	bk := &rk.banks[t.loc.Bank]
	ch.record(now, "ACT", t.loc.Rank, t.loc.Bank, t.loc.Row)
	bk.open, bk.row = true, t.loc.Row
	bk.nextCol = now + tm.TRCD
	bk.nextPre = now + tm.TRAS
	bk.nextAct = now + tm.TRC
	rk.nextAct = now + tm.TRRD
	kept := rk.acts[:0]
	for _, a := range rk.acts {
		if now < a+tm.TFAW {
			kept = append(kept, a)
		}
	}
	rk.acts = append(kept, now)
	t.needAct = true
	ch.stats.Activates.Inc()
}

func (ch *refChannel) precharge(now uint64, r, b int) {
	bk := &ch.ranks[r].banks[b]
	ch.record(now, "PRE", r, b, 0)
	bk.open = false
	bk.nextAct = max(bk.nextAct, now+ch.cfg.Timing.TRP)
	ch.stats.Precharges.Inc()
}

func (ch *refChannel) column(t *refTxn, now uint64) {
	tm := &ch.cfg.Timing
	rk := &ch.ranks[t.loc.Rank]
	bk := &rk.banks[t.loc.Bank]
	start := now + tm.TCAS
	if t.write {
		ch.record(now, "WR", t.loc.Rank, t.loc.Bank, t.loc.Row)
		start = now + tm.TCWD
		bk.nextPre = max(bk.nextPre, start+tm.TBurst+tm.TWR)
		rk.wtrUntil = start + tm.TBurst + tm.TWTR
		ch.stats.Writes.Inc()
		ch.stats.KindWrites[t.kind].Inc()
		if ch.draining {
			ch.seen.drainWrites++
		}
	} else {
		ch.record(now, "RD", t.loc.Rank, t.loc.Bank, t.loc.Row)
		bk.nextPre = max(bk.nextPre, now+tm.TRTP)
		ch.stats.Reads.Inc()
		ch.stats.KindReads[t.kind].Inc()
	}
	bk.nextCol = now + tm.TCCD
	ch.busFree = start + tm.TBurst
	ch.lastRank, ch.lastWrite = t.loc.Rank, t.write
	t.rowHit = !t.needAct
	if t.rowHit {
		ch.stats.RowHits.Inc()
	} else {
		ch.stats.RowMisses.Inc()
	}
	t.done = start + tm.TBurst
	q := &ch.reads
	if t.write {
		q = &ch.writes
	}
	for i, x := range *q {
		if x == t {
			*q = append((*q)[:i], (*q)[i+1:]...)
			break
		}
	}
	ch.inflight = append(ch.inflight, t)
}

func (ch *refChannel) record(now uint64, name string, r, b, row int) {
	*ch.log = append(*ch.log, issued{now: now, ch: ch.id, name: name, rank: r, bank: b, row: row})
}
