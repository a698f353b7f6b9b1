package dram

import (
	"testing"

	"repro/internal/addrmap"
	"repro/internal/mem"
)

// streamingReads returns a step that tops up channel 0's read queue with
// row hits, spread over every rank and bank, and ticks the memory once. It
// returns the completions; transaction objects and the completion buffer
// are recycled, so the steady state allocates nothing.
func streamingReads() func() int {
	m := New(DefaultConfig(1))
	g := m.Config().Geom
	issued := 0
	var pool, done []*Txn
	return func() int {
		for m.CanEnqueue(0, mem.Read) {
			t := recycle(&pool)
			*t = Txn{Op: mem.Op{Type: mem.Read}, Loc: addrmap.Location{
				Rank:   issued % g.RanksPerChan,
				Bank:   (issued / g.RanksPerChan) % g.BanksPerRank,
				Column: issued % g.ColumnsPerRow,
			}}
			m.Enqueue(t)
			issued++
		}
		done, _ = m.Tick(done[:0])
		pool = append(pool, done...)
		return len(done)
	}
}

// randomMix returns a step that offers one random transaction (40% writes,
// random rank, bank, row and column: frequent row conflicts, the
// scheduler's hard case) and ticks the memory once. It recycles like
// streamingReads.
func randomMix() func() int {
	m := New(DefaultConfig(1))
	g := m.Config().Geom
	state := uint64(88172645463325252)
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	var pool, done []*Txn
	return func() int {
		typ := mem.Read
		if next(100) < 40 {
			typ = mem.Write
		}
		if m.CanEnqueue(0, typ) {
			t := recycle(&pool)
			*t = Txn{Op: mem.Op{Type: typ}, Loc: addrmap.Location{
				Rank: next(g.RanksPerChan), Bank: next(g.BanksPerRank),
				Row: next(g.RowsPerBank), Column: next(g.ColumnsPerRow),
			}}
			m.Enqueue(t)
		}
		done, _ = m.Tick(done[:0])
		pool = append(pool, done...)
		return len(done)
	}
}

func recycle(pool *[]*Txn) *Txn {
	if n := len(*pool); n > 0 {
		t := (*pool)[n-1]
		*pool = (*pool)[:n-1]
		return t
	}
	return new(Txn)
}

// TestTickPathsDoNotAllocate holds Memory.Tick, with the arrivals that feed
// it, to zero allocations per cycle once the queues, candidate lists and
// completion buffers have reached their steady-state size.
func TestTickPathsDoNotAllocate(t *testing.T) {
	for _, tc := range []struct {
		name string
		step func() int
	}{{"streaming reads", streamingReads()}, {"random mix", randomMix()}} {
		for i := 0; i < 50_000; i++ {
			tc.step()
		}
		if a := testing.AllocsPerRun(20_000, func() { tc.step() }); a != 0 {
			t.Errorf("%s: %v allocations per cycle, want 0", tc.name, a)
		}
	}
}

// BenchmarkStreamingReads measures simulator throughput (DRAM cycles and
// transactions per second) under a saturating row-hit read stream; one op
// is one completed transaction.
func BenchmarkStreamingReads(b *testing.B) {
	step := streamingReads()
	b.ReportAllocs()
	for completed := 0; completed < b.N; {
		completed += step()
	}
}

// BenchmarkRandomMix measures throughput under a random read/write mix with
// frequent row conflicts; one op is one completed transaction.
func BenchmarkRandomMix(b *testing.B) {
	step := randomMix()
	b.ReportAllocs()
	for completed := 0; completed < b.N; {
		completed += step()
	}
}

// BenchmarkMemoryTick measures the per-cycle cost of Memory.Tick with a
// standing queue of row-conflicting transactions — the steady-state hot
// path of every simulation. The acceptance bar is zero amortized
// allocations per tick.
func BenchmarkMemoryTick(b *testing.B) {
	m := New(DefaultConfig(1))
	g := m.Config().Geom
	issued := 0
	refill := func() {
		for m.CanEnqueue(0, mem.Read) {
			m.Enqueue(&Txn{Op: mem.Op{Type: mem.Read}, Loc: addrmap.Location{
				Rank: issued % g.RanksPerChan,
				Bank: issued % g.BanksPerRank,
				Row:  issued, Column: issued % g.ColumnsPerRow,
			}})
			issued++
		}
	}
	refill()
	var done []*Txn
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done, _ = m.Tick(done[:0])
		if len(done) > 0 && m.QueueLen(0, mem.Read) < 8 {
			b.StopTimer()
			refill()
			b.StartTimer()
		}
	}
}

// BenchmarkIdleTick measures the per-cycle cost of an idle memory system
// (refresh bookkeeping only).
func BenchmarkIdleTick(b *testing.B) {
	m := New(DefaultConfig(2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Tick(nil)
	}
}

// BenchmarkIdleFastForward measures the NextEvent+SkipTo pair that replaces
// tick-by-tick idling, at one call per idle *period* instead of one per
// cycle.
func BenchmarkIdleFastForward(b *testing.B) {
	m := New(DefaultConfig(2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Tick(nil)
		next := m.NextEvent()
		if next > m.Now() {
			m.SkipTo(next)
		}
	}
}
