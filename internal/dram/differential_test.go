package dram

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/addrmap"
	"repro/internal/mem"
)

// arrival is one transaction of a differential scenario: it is offered gap
// cycles after the previous one was accepted, and re-offered every cycle the
// memory runs while its queue is full.
type arrival struct {
	gap   uint64
	write bool
	loc   addrmap.Location
}

type scenario struct {
	cfg      Config
	arrivals []arrival
}

func (sc scenario) String() string {
	g := sc.cfg.Geom
	return fmt.Sprintf("tRC=%d tREFI=%d ch=%d ranks=%d banks=%d rows=%d rq=%d wq=%d wm=%d/%d arrivals=%d",
		sc.cfg.Timing.TRC, sc.cfg.Timing.TREFI, g.Channels, g.RanksPerChan, g.BanksPerRank, g.RowsPerBank,
		sc.cfg.ReadQ, sc.cfg.WriteQ, sc.cfg.LowWM, sc.cfg.HighWM, len(sc.arrivals))
}

// cmdLog records a production channel's command stream in the reference's
// terms while its Checker validates the timing.
type cmdLog struct {
	*Checker
	ch  int
	out *[]issued
}

func (l cmdLog) OnActivate(now uint64, rank, bank, row int) {
	l.Checker.OnActivate(now, rank, bank, row)
	*l.out = append(*l.out, issued{now, l.ch, "ACT", rank, bank, row})
}

func (l cmdLog) OnPrecharge(now uint64, rank, bank int) {
	l.Checker.OnPrecharge(now, rank, bank)
	*l.out = append(*l.out, issued{now, l.ch, "PRE", rank, bank, 0})
}

func (l cmdLog) OnColumn(now uint64, rank, bank, row int, isWrite bool) {
	l.Checker.OnColumn(now, rank, bank, row, isWrite)
	name := "RD"
	if isWrite {
		name = "WR"
	}
	*l.out = append(*l.out, issued{now, l.ch, name, rank, bank, row})
}

func (l cmdLog) OnRefresh(now uint64, rank int) {
	l.Checker.OnRefresh(now, rank)
	*l.out = append(*l.out, issued{now, l.ch, "REF", rank, 0, 0})
}

// runDifferential drives the production memory and the reference with the
// same arrivals and fails unless they issue the same commands on the same
// cycles, complete the same transactions identically and end with equal
// ChannelStats. With skip, the production side fast-forwards through idle
// stretches with NextEvent/SkipTo as the simulation loop does, while the
// reference still ticks every cycle and must stay silent across the skip.
// It returns the reference's corner-case counts and the completions.
func runDifferential(t testing.TB, sc scenario, skip bool) (refSeen, int) {
	t.Helper()
	m := New(sc.cfg)
	var got []issued
	checkers := make([]*Checker, len(m.channels))
	for c, ch := range m.channels {
		checkers[c] = NewChecker(sc.cfg.Timing, sc.cfg.Geom.RanksPerChan, sc.cfg.Geom.BanksPerRank)
		ch.check = cmdLog{Checker: checkers[c], ch: c, out: &got}
	}
	ref := newRefMemory(sc.cfg)
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%v skip=%v cycle %d: %s", sc, skip, m.Now(), fmt.Sprintf(format, args...))
	}
	ids := make(map[*Txn]int)
	var done []*Txn
	var rdone []*refTxn
	completed, next := 0, 0
	var due uint64
	if len(sc.arrivals) > 0 {
		due = sc.arrivals[0].gap
	}
	catchUp := func() {
		for ref.now < m.Now() {
			if rdone = ref.tick(rdone[:0]); len(rdone) > 0 || len(ref.log) > 0 {
				fail("reference acted at %d inside a skipped stretch: %v %d completions", ref.now-1, ref.log, len(rdone))
			}
		}
	}
	for next < len(sc.arrivals) || m.Pending() > 0 {
		if m.Now() > 1<<24 {
			fail("traffic did not drain")
		}
		catchUp()
		for next < len(sc.arrivals) && due <= m.Now() {
			a := sc.arrivals[next]
			typ := mem.Read
			if a.write {
				typ = mem.Write
			}
			kind := mem.Kind(next % mem.NumKinds)
			pt := &Txn{Op: mem.Op{Type: typ, Kind: kind}, Loc: a.loc}
			ok := m.Enqueue(pt)
			if rok := ref.enqueue(&refTxn{id: next, write: a.write, kind: kind, loc: a.loc}); rok != ok {
				fail("arrival %d accepted=%v, reference accepted=%v", next, ok, rok)
			}
			if !ok {
				break
			}
			ids[pt] = next
			next++
			if next < len(sc.arrivals) {
				due = m.Now() + sc.arrivals[next].gap
			}
		}
		var active bool
		done, active = m.Tick(done[:0])
		rdone = ref.tick(rdone[:0])
		if !slices.Equal(got, ref.log) {
			fail("commands %v, reference %v", got, ref.log)
		}
		got, ref.log = got[:0], ref.log[:0]
		if len(done) != len(rdone) {
			fail("%d completions, reference %d", len(done), len(rdone))
		}
		for i, d := range done {
			r := rdone[i]
			if ids[d] != r.id || d.Done != r.done || d.Arrival != r.arrival || d.RowHit != r.rowHit {
				fail("completion #%d (done %d arrival %d hit %v), reference #%d (done %d arrival %d hit %v)",
					ids[d], d.Done, d.Arrival, d.RowHit, r.id, r.done, r.arrival, r.rowHit)
			}
		}
		completed += len(done)
		if skip && !active {
			target := m.NextEvent()
			if next < len(sc.arrivals) && due < target {
				target = due
			}
			m.SkipTo(target)
		}
	}
	catchUp()
	if ref.pending() != 0 {
		fail("reference still holds %d transactions", ref.pending())
	}
	for c, ch := range m.channels {
		if ch.Stats != ref.chans[c].stats {
			fail("channel %d stats %+v, reference %+v", c, ch.Stats, ref.chans[c].stats)
		}
		if !checkers[c].Ok() {
			fail("channel %d timing violations: %v", c, checkers[c].Violations[:min(5, len(checkers[c].Violations))])
		}
	}
	var seen refSeen
	for _, ch := range ref.chans {
		seen.drainWrites += ch.seen.drainWrites
		seen.drainRefresh += ch.seen.drainRefresh
		seen.actsWithheld += ch.seen.actsWithheld
	}
	return seen, completed
}

// randomScenario draws a configuration and an arrival script: DDR3 or DDR4
// timing, 1, 2, 4 or 16 ranks of 2 or 8 banks, queues of 4, 8 or 48 with
// random watermarks, and bursts of traffic separated by idle gaps, some
// longer than a refresh interval.
func randomScenario(rng *rand.Rand) scenario {
	tm := DDR3_1600()
	if rng.Intn(2) == 1 {
		tm = DDR4_2400()
	}
	sizes := []int{4, 8, 48}
	cfg := Config{
		Timing: tm,
		Geom: addrmap.Geometry{
			Channels:      1 + rng.Intn(2),
			RanksPerChan:  []int{1, 2, 4, 16}[rng.Intn(4)],
			BanksPerRank:  []int{2, 8}[rng.Intn(2)],
			RowsPerBank:   1 + rng.Intn(16),
			ColumnsPerRow: 8,
		},
		ReadQ:  sizes[rng.Intn(3)],
		WriteQ: sizes[rng.Intn(3)],
	}
	cfg.HighWM = 1 + rng.Intn(cfg.WriteQ)
	cfg.LowWM = rng.Intn(cfg.HighWM)
	g := cfg.Geom
	writePct := rng.Intn(101)
	n := 100 + rng.Intn(400)
	arr := make([]arrival, n)
	for i := range arr {
		a := &arr[i]
		switch p := rng.Intn(100); {
		case p < 2:
			a.gap = uint64(rng.Intn(2 * int(tm.TREFI)))
		case p < 10:
			a.gap = uint64(rng.Intn(200))
		case p < 40:
			a.gap = uint64(rng.Intn(8))
		}
		a.write = rng.Intn(100) < writePct
		a.loc = addrmap.Location{
			Channel: rng.Intn(g.Channels), Rank: rng.Intn(g.RanksPerChan),
			Bank: rng.Intn(g.BanksPerRank), Row: rng.Intn(g.RowsPerBank),
		}
	}
	return scenario{cfg: cfg, arrivals: arr}
}

// TestSchedulerMatchesReference holds the production scheduler to the naive
// reference on 200 random configurations, ticking every cycle and with idle
// fast-forward.
func TestSchedulerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	total := 0
	for i := 0; i < 200; i++ {
		sc := randomScenario(rng)
		for _, skip := range []bool{false, true} {
			_, n := runDifferential(t, sc, skip)
			total += n
		}
	}
	t.Logf("%d completions matched", total)
}

// decodeScenario turns fuzzer bytes into a scenario. The first eight bytes
// pick the timing (DDR3 or DDR4, with tREFI as specified, halved or
// quartered so short scripts reach refresh corner cases), the channel count,
// ranks (1–16), banks (1–8), rows (1–16), both queue sizes (1–48) and the
// watermarks; every following triple is one arrival: an idle gap (scaled by
// 128 when bit 6 is set), the direction, rank and bank, and the row and
// channel. At most 128 arrivals are read, and gaps stop once their sum
// reaches one and a half refresh intervals, which keeps one input to about
// a millisecond.
func decodeScenario(data []byte) (scenario, bool) {
	if len(data) < 8 {
		return scenario{}, false
	}
	h, data := data[:8], data[8:]
	tm := DDR3_1600()
	if h[0]&1 != 0 {
		tm = DDR4_2400()
	}
	tm.TREFI >>= uint(h[0]>>2) % 3
	cfg := Config{
		Timing: tm,
		Geom: addrmap.Geometry{
			Channels:      1 + int(h[0]>>1&1),
			RanksPerChan:  1 + int(h[1]%16),
			BanksPerRank:  1 + int(h[2]%8),
			RowsPerBank:   1 + int(h[3]%16),
			ColumnsPerRow: 8,
		},
		ReadQ:  1 + int(h[4]%48),
		WriteQ: 1 + int(h[5]%48),
	}
	cfg.HighWM = 1 + int(h[6])%cfg.WriteQ
	cfg.LowWM = int(h[7]) % cfg.HighWM
	g := cfg.Geom
	var arr []arrival
	budget := tm.TREFI + tm.TREFI/2
	for ; len(data) >= 3 && len(arr) < 128; data = data[3:] {
		gap := uint64(data[0] & 0x3f)
		if data[0]&0x40 != 0 {
			gap <<= 7
		}
		gap = min(gap, budget)
		budget -= gap
		arr = append(arr, arrival{
			gap:   gap,
			write: data[1]&1 != 0,
			loc: addrmap.Location{
				Channel: int(data[2]>>7) % g.Channels,
				Rank:    int(data[1]>>1&0xf) % g.RanksPerChan,
				Bank:    int(data[1]>>5) % g.BanksPerRank,
				Row:     int(data[2]&0x7f) % g.RowsPerBank,
			},
		})
	}
	return scenario{cfg: cfg, arrivals: arr}, true
}

// FuzzSchedulerMatchesReference is the differential test over fuzzer-built
// scenarios. Its seed corpus (testdata/fuzz) runs with every go test.
func FuzzSchedulerMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sc, ok := decodeScenario(data)
		if !ok {
			return
		}
		runDifferential(t, sc, false)
		runDifferential(t, sc, true)
	})
}

// TestFuzzCorpusCoverage proves the checked-in seed corpus reaches the
// scheduler's corner cases: writes issued in drain mode, a refresh drained
// while the write queue drains, and ACTs withheld from a rank whose refresh
// is due.
func TestFuzzCorpusCoverage(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzSchedulerMatchesReference")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seen refSeen
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a one-[]byte fuzz corpus file", f.Name())
		}
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		sc, ok := decodeScenario([]byte(data))
		if !ok {
			t.Fatalf("%s: too short to decode", f.Name())
		}
		s, _ := runDifferential(t, sc, true)
		seen.drainWrites += s.drainWrites
		seen.drainRefresh += s.drainRefresh
		seen.actsWithheld += s.actsWithheld
	}
	if seen.drainWrites == 0 || seen.drainRefresh == 0 || seen.actsWithheld == 0 {
		t.Fatalf("corpus misses a corner case: %+v", seen)
	}
}
