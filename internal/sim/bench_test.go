package sim

import (
	"testing"

	"repro/internal/workload"
)

// benchmark end-to-end simulator throughput (simulated memory ops per
// wall-clock second) for a representative scheme/workload pair.
func benchScheme(b *testing.B, scheme, bench string) {
	spec, err := workload.ByName(bench)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		r, err := Run(Config{
			SchemeName: scheme, Benchmark: spec,
			Cores: 4, Channels: 1, OpsPerCore: 2_000, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		if r.Cycles == 0 {
			b.Fatal("no cycles")
		}
	}
}

func BenchmarkSimNonSecure(b *testing.B) { benchScheme(b, "nonsecure", "pr") }
func BenchmarkSimSynergy(b *testing.B)   { benchScheme(b, "synergy", "pr") }
func BenchmarkSimITESP(b *testing.B)     { benchScheme(b, "itesp", "pr") }

// BenchmarkSimLowMPKI times low-intensity runs, whose cores spend most
// cycles retiring the compute gaps between rare memory operations: the
// case the fast-forward through compute gaps targets.
func BenchmarkSimLowMPKI(b *testing.B) {
	for _, bench := range []string{"ep", "perlbench"} {
		b.Run(bench, func(b *testing.B) { benchScheme(b, "itesp", bench) })
	}
}
