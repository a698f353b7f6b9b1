package dram

import (
	"testing"

	"repro/internal/addrmap"
	"repro/internal/mem"
)

// tinyConfig returns a small geometry for fast exhaustive tests.
func tinyConfig() Config {
	return Config{
		Timing: DDR3_1600(),
		Geom:   addrmap.Geometry{Channels: 1, RanksPerChan: 2, BanksPerRank: 2, RowsPerBank: 16, ColumnsPerRow: 8},
		ReadQ:  8,
		WriteQ: 8,
		HighWM: 6,
		LowWM:  2,
	}
}

func read(loc addrmap.Location) *Txn {
	return &Txn{Op: mem.Op{Type: mem.Read}, Loc: loc}
}

func write(loc addrmap.Location) *Txn {
	return &Txn{Op: mem.Op{Type: mem.Write}, Loc: loc}
}

// runUntil ticks until n transactions complete or the cycle budget is hit.
func runUntil(t *testing.T, m *Memory, n int, budget uint64) []*Txn {
	t.Helper()
	var done []*Txn
	start := m.Now()
	for len(done) < n {
		if m.Now()-start > budget {
			t.Fatalf("only %d/%d transactions completed within %d cycles", len(done), n, budget)
		}
		d, _ := m.Tick(nil)
		done = append(done, d...)
	}
	return done
}

func TestSingleReadLatency(t *testing.T) {
	m := New(tinyConfig())
	tx := read(addrmap.Location{Row: 3, Column: 1})
	if !m.Enqueue(tx) {
		t.Fatal("enqueue failed on empty queue")
	}
	runUntil(t, m, 1, 1000)
	tm := DDR3_1600()
	// Cold access: ACT at cycle 0, RD at tRCD, data at +tCAS+tBurst.
	want := tm.TRCD + tm.TCAS + tm.TBurst
	if tx.Done != want {
		t.Fatalf("cold read done at %d, want %d", tx.Done, want)
	}
	if tx.RowHit {
		t.Fatal("cold read must be a row miss")
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	// Two reads to the same row: second is a row hit.
	m := New(tinyConfig())
	a := read(addrmap.Location{Row: 3, Column: 0})
	b := read(addrmap.Location{Row: 3, Column: 4})
	m.Enqueue(a)
	m.Enqueue(b)
	runUntil(t, m, 2, 1000)
	if !b.RowHit {
		t.Fatal("second same-row read should be a row hit")
	}
	hitLatency := b.Done - a.Done

	// Two reads to different rows of the same bank: second needs PRE+ACT.
	m2 := New(tinyConfig())
	c := read(addrmap.Location{Row: 3, Column: 0})
	d := read(addrmap.Location{Row: 5, Column: 0})
	m2.Enqueue(c)
	m2.Enqueue(d)
	runUntil(t, m2, 2, 1000)
	if d.RowHit {
		t.Fatal("conflicting-row read must not be a row hit")
	}
	confLatency := d.Done - c.Done
	if hitLatency >= confLatency {
		t.Fatalf("row hit gap (%d) should beat row conflict gap (%d)", hitLatency, confLatency)
	}
}

func TestBankParallelismBeatsSameBank(t *testing.T) {
	// Four row-miss reads to four different banks overlap ACTs; the same
	// four to one bank serialize on tRC.
	mPar := New(tinyConfig())
	for i := 0; i < 4; i++ {
		mPar.Enqueue(read(addrmap.Location{Rank: i / 2, Bank: i % 2, Row: 1}))
	}
	donePar := runUntil(t, mPar, 4, 10000)
	var lastPar uint64
	for _, tx := range donePar {
		if tx.Done > lastPar {
			lastPar = tx.Done
		}
	}

	mSer := New(tinyConfig())
	for i := 0; i < 4; i++ {
		mSer.Enqueue(read(addrmap.Location{Row: i * 2}))
	}
	doneSer := runUntil(t, mSer, 4, 10000)
	var lastSer uint64
	for _, tx := range doneSer {
		if tx.Done > lastSer {
			lastSer = tx.Done
		}
	}
	if lastPar >= lastSer {
		t.Fatalf("bank-parallel finish %d should beat same-bank finish %d", lastPar, lastSer)
	}
}

func TestQueueCapacityBackpressure(t *testing.T) {
	cfg := tinyConfig()
	m := New(cfg)
	for i := 0; i < cfg.ReadQ; i++ {
		if !m.Enqueue(read(addrmap.Location{Row: i % 8})) {
			t.Fatalf("enqueue %d rejected below capacity", i)
		}
	}
	if m.Enqueue(read(addrmap.Location{})) {
		t.Fatal("enqueue beyond capacity should fail")
	}
	if m.CanEnqueue(0, mem.Read) {
		t.Fatal("CanEnqueue should report full read queue")
	}
	if !m.CanEnqueue(0, mem.Write) {
		t.Fatal("write queue should still have room")
	}
}

func TestWritesDrainEventually(t *testing.T) {
	m := New(tinyConfig())
	var txns []*Txn
	for i := 0; i < 6; i++ {
		tx := write(addrmap.Location{Row: i, Column: i})
		txns = append(txns, tx)
		m.Enqueue(tx)
	}
	runUntil(t, m, 6, 50000)
	for i, tx := range txns {
		if tx.Done == 0 {
			t.Fatalf("write %d never completed", i)
		}
	}
	if got := m.ChannelStats(0).Writes.Value(); got != 6 {
		t.Fatalf("write count = %d, want 6", got)
	}
}

func TestReadPriorityOverWrites(t *testing.T) {
	// With writes below the high watermark, a read arriving later should
	// still be served promptly (reads have priority outside drain mode).
	m := New(tinyConfig())
	for i := 0; i < 3; i++ {
		m.Enqueue(write(addrmap.Location{Row: i}))
	}
	r := read(addrmap.Location{Rank: 1, Row: 9})
	m.Enqueue(r)
	runUntil(t, m, 4, 50000)
	tm := DDR3_1600()
	maxReasonable := 4 * (tm.TRCD + tm.TCAS + tm.TBurst)
	if r.Latency() > maxReasonable {
		t.Fatalf("read latency %d too high; writes were not deprioritized", r.Latency())
	}
}

func TestRefreshHappens(t *testing.T) {
	m := New(tinyConfig())
	tm := DDR3_1600()
	// Idle for two refresh intervals; every rank should refresh.
	for c := uint64(0); c < 2*tm.TREFI+tm.TRFC; c++ {
		m.Tick(nil)
	}
	if got := m.ChannelStats(0).Refreshes.Value(); got < 2 {
		t.Fatalf("refreshes = %d, want >= 2 after two tREFI windows", got)
	}
}

func TestRefreshBlocksRankTemporarily(t *testing.T) {
	m := New(tinyConfig())
	tm := DDR3_1600()
	// Run until just after the first refresh begins, then issue a read to
	// the refreshing rank; it must wait out tRFC.
	for m.ChannelStats(0).Refreshes.Value() == 0 {
		m.Tick(nil)
		if m.Now() > 2*tm.TREFI {
			t.Fatal("no refresh observed")
		}
	}
	// Rank 0 refreshes first (staggered ordering).
	r := read(addrmap.Location{Rank: 0, Row: 1})
	m.Enqueue(r)
	runUntil(t, m, 1, tm.TRFC+2000)
	if r.Latency() < tm.TRFC/2 {
		t.Fatalf("read latency %d suspiciously low during refresh (tRFC=%d)", r.Latency(), tm.TRFC)
	}
}

func TestThroughputRowHits(t *testing.T) {
	// Streaming row hits should approach one burst per tCCD.
	m := New(tinyConfig())
	const n = 8
	var txns []*Txn
	for i := 0; i < n; i++ {
		tx := read(addrmap.Location{Row: 1, Column: i % 8})
		txns = append(txns, tx)
		m.Enqueue(tx)
	}
	runUntil(t, m, n, 10000)
	tm := DDR3_1600()
	var last uint64
	for _, tx := range txns {
		if tx.Done > last {
			last = tx.Done
		}
	}
	ideal := tm.TRCD + tm.TCAS + tm.TBurst + (n-1)*tm.TCCD
	if last > ideal+8 {
		t.Fatalf("streaming finish %d, want near ideal %d", last, ideal)
	}
	if hits := m.ChannelStats(0).RowHits.Value(); hits != n-1 {
		t.Fatalf("row hits = %d, want %d", hits, n-1)
	}
}

func TestKindAccounting(t *testing.T) {
	m := New(tinyConfig())
	m.Enqueue(&Txn{Op: mem.Op{Type: mem.Read, Kind: mem.KindCounter}, Loc: addrmap.Location{Row: 1}})
	m.Enqueue(&Txn{Op: mem.Op{Type: mem.Write, Kind: mem.KindParity}, Loc: addrmap.Location{Row: 2}})
	runUntil(t, m, 2, 50000)
	s := m.ChannelStats(0)
	if s.KindReads[mem.KindCounter].Value() != 1 {
		t.Fatal("counter-kind read not accounted")
	}
	if s.KindWrites[mem.KindParity].Value() != 1 {
		t.Fatal("parity-kind write not accounted")
	}
}

func TestBadWatermarksPanic(t *testing.T) {
	cfg := tinyConfig()
	cfg.LowWM = cfg.HighWM
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad watermarks")
		}
	}()
	New(cfg)
}

// TestTickWorkersStub pins the deprecated TickWorkers/Close stubs: 0 and
// 1 build an ordinary serial memory, anything larger panics like the other
// bad configs, and Close is a no-op that may be called at any time.
func TestTickWorkersStub(t *testing.T) {
	cfg := tinyConfig()
	cfg.TickWorkers = 1
	m := New(cfg)
	m.Close()
	m.Close()
	m.Enqueue(read(addrmap.Location{Row: 1}))
	runUntil(t, m, 1, 50000)

	cfg.TickWorkers = 2
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on TickWorkers > 1")
		}
	}()
	New(cfg)
}

func TestMultiChannelIndependence(t *testing.T) {
	cfg := tinyConfig()
	cfg.Geom.Channels = 2
	m := New(cfg)
	a := read(addrmap.Location{Channel: 0, Row: 1})
	b := read(addrmap.Location{Channel: 1, Row: 1})
	m.Enqueue(a)
	m.Enqueue(b)
	runUntil(t, m, 2, 1000)
	if a.Done != b.Done {
		t.Fatalf("identical accesses on independent channels finished at %d and %d", a.Done, b.Done)
	}
}

func TestPendingCount(t *testing.T) {
	m := New(tinyConfig())
	m.Enqueue(read(addrmap.Location{Row: 1}))
	m.Enqueue(write(addrmap.Location{Row: 2}))
	if m.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", m.Pending())
	}
	runUntil(t, m, 2, 50000)
	if m.Pending() != 0 {
		t.Fatalf("pending after drain = %d, want 0", m.Pending())
	}
}

func TestFRFCFSBeatsFCFS(t *testing.T) {
	// Interleave requests so that in-order service ping-pongs between two
	// rows of one bank while FR-FCFS can batch the row hits.
	run := func(pol SchedPolicy) uint64 {
		cfg := tinyConfig()
		cfg.Sched = pol
		m := New(cfg)
		var txns []*Txn
		for i := 0; i < 8; i++ {
			tx := read(addrmap.Location{Row: i % 2, Column: i})
			txns = append(txns, tx)
			m.Enqueue(tx)
		}
		runUntil(t, m, 8, 100000)
		var last uint64
		for _, tx := range txns {
			if tx.Done > last {
				last = tx.Done
			}
		}
		return last
	}
	fr := run(FRFCFS)
	fc := run(FCFS)
	if fr >= fc {
		t.Fatalf("FR-FCFS (%d) should beat FCFS (%d) on row-ping-pong traffic", fr, fc)
	}
}

func TestFCFSStillCompletesEverything(t *testing.T) {
	cfg := tinyConfig()
	cfg.Sched = FCFS
	m := New(cfg)
	checkers := m.AttachCheckers()
	for i := 0; i < 6; i++ {
		typ := mem.Read
		if i%2 == 1 {
			typ = mem.Write
		}
		m.Enqueue(&Txn{Op: mem.Op{Type: typ}, Loc: addrmap.Location{Rank: i % 2, Row: i}})
	}
	runUntil(t, m, 6, 100000)
	if !checkers[0].Ok() {
		t.Fatalf("FCFS protocol violations: %v", checkers[0].Violations)
	}
}
