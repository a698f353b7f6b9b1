package core

import (
	"testing"

	"repro/internal/addrmap"
	"repro/internal/dram"
	"repro/internal/enclave"
	"repro/internal/mem"
	"repro/internal/trace"
)

// steadyEngine builds a one-channel engine for the named scheme, warms its
// pools with a burst of random accesses, and returns a step that offers one
// more access (unless backpressured) and ticks the engine once.
func steadyEngine(tb testing.TB, schemeName string) func() {
	tb.Helper()
	scheme, err := SchemeByName(schemeName, 2)
	if err != nil {
		tb.Fatal(err)
	}
	geom := addrmap.DefaultGeometry(1)
	pol, err := addrmap.ByName("rbh2", geom)
	if err != nil {
		tb.Fatal(err)
	}
	dmem := dram.New(dram.DefaultConfig(1))
	encl := enclave.NewDenseSystem(1 << 20)
	for i := 0; i < 2; i++ {
		encl.Create(mem.EnclaveID(i))
	}
	eng, err := New(Config{Scheme: scheme, Policy: pol, Cores: 2, DataPages: 1 << 20}, dmem, encl)
	if err != nil {
		tb.Fatal(err)
	}

	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	var tokens []uint64
	step := func() {
		if !eng.Backpressured() {
			typ := mem.Read
			if next()%4 == 0 {
				typ = mem.Write
			}
			va := mem.VirtAddr(next() % (1 << 28) * mem.BlockSize)
			eng.Access(0, trace.Record{Type: typ, VAddr: va})
		}
		tokens, _ = eng.Tick(tokens[:0])
	}
	// Warm the pools to steady state so callers see amortized (recycled)
	// allocation behavior.
	for i := 0; i < 5000; i++ {
		step()
	}
	return step
}

func benchEngine(b *testing.B, schemeName string) {
	step := steadyEngine(b, schemeName)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// TestEngineTickDoesNotAllocate holds the Access+Tick hot path to zero
// allocations per cycle at steady state, for the schemes
// BenchmarkEngineTick measures.
func TestEngineTickDoesNotAllocate(t *testing.T) {
	for _, s := range []string{"nonsecure", "itesp", "vault"} {
		step := steadyEngine(t, s)
		if a := testing.AllocsPerRun(5000, step); a != 0 {
			t.Errorf("%s: %v allocations per cycle, want 0", s, a)
		}
	}
}

// BenchmarkEngineTick measures the full Access+Tick hot path (token
// allocation, group tracking, metadata traffic generation, DRAM tick,
// completion routing) at steady state. The acceptance bar is zero amortized
// allocations per iteration.
func BenchmarkEngineTick(b *testing.B) {
	for _, s := range []string{"nonsecure", "itesp", "vault"} {
		b.Run(s, func(b *testing.B) { benchEngine(b, s) })
	}
}
