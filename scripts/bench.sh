#!/bin/sh
# Hot-loop benchmark harness: runs the allocation-free tick-path
# microbenchmarks (engine, DRAM, integrity stores), the end-to-end
# simulator benchmarks (internal/sim) and the reduced Figure 8 wall-clock
# benchmark, then writes BENCH_hotloop.json containing the frozen
# pre-optimization baseline (recorded on this repo immediately before the
# hot-loop overhaul, same machine), frozen before/after records of later
# optimizations, and the numbers just measured, so each speedup is
# machine-checkable from one file.
#
# Usage: scripts/bench.sh [full|smoke]
#   full   default benchtime; stable numbers (~1 min)
#   smoke  -benchtime=1x: proves the benchmark paths run and the JSON is
#          well-formed (CI). Microbenchmark timings at one iteration are
#          noise; the Fig 8 number is real since its single iteration is a
#          complete simulation sweep.
set -eu

cd "$(dirname "$0")/.."

mode="${1:-full}"
benchtime=""
case "$mode" in
full) ;;
smoke) benchtime="-benchtime=1x" ;;
*)
	echo "usage: $0 [full|smoke]" >&2
	exit 2
	;;
esac

out=BENCH_hotloop.json
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# shellcheck disable=SC2086 # benchtime is intentionally word-split
go test -run '^$' -bench . -benchmem $benchtime \
	./internal/core ./internal/dram ./internal/integrity ./internal/sim . | tee "$raw"

cpu="$(sed -n 's/^cpu: //p' "$raw" | head -1)"

# --- scaling curve: Fig 8 sweep wall-clock vs -parallel ------------------
# The reduced Fig 8 sweep (4 benchmarks pr,cc,mcf,lbm x (nonsecure + the 8
# Fig 8 schemes) = 36 runs, 4 cores, 1 channel) is timed end to end at
# -parallel 1..GOMAXPROCS: across-run parallelism is the simulator's one
# parallelism axis. Each point is the minimum over interleaved trials (every
# trial visits every point once), which filters host-speed drift better
# than back-to-back repeats. Recorded per point: wall-clock seconds and
# runs/sec.
scale_ops=4000
scale_runs=36
scale_trials=3
case "$mode" in
smoke)
	scale_ops=500
	scale_trials=1
	;;
esac
procs="${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN)}"
expbin="$(mktemp)"
go build -o "$expbin" ./cmd/experiments
scaling="$(mktemp)"
best="$(mktemp)"
trap 'rm -f "$raw" "$scaling" "$best" "$expbin"' EXIT
for t in $(seq 1 "$scale_trials"); do
	for p in $(seq 1 "$procs"); do
		t0=$(date +%s%N)
		"$expbin" -fig 8 -ops "$scale_ops" -bench pr,cc,mcf,lbm -seed 42 \
			-parallel "$p" >/dev/null 2>&1
		t1=$(date +%s%N)
		echo "$p $t0 $t1" >>"$best"
	done
done
{
	printf '  "scaling": {\n'
	printf '    "sweep": "fig8 (nonsecure + 8 schemes) x pr,cc,mcf,lbm, 4 cores, 1 channel",\n'
	printf '    "ops_per_core": %s,\n' "$scale_ops"
	printf '    "runs": %s,\n' "$scale_runs"
	printf '    "trials": %s,\n' "$scale_trials"
	printf '    "points": [\n'
	awk -v runs="$scale_runs" '
		{
			ns = $3 - $2
			if (!($1 in min) || ns < min[$1]) min[$1] = ns
			if ($1 > n) n = $1
		}
		END {
			for (p = 1; p <= n; p++) {
				s = min[p] / 1e9
				printf "%s      {\"parallel\": %d, \"fig8_wall_s\": %.3f, \"runs_per_sec\": %.3f}", \
					(p > 1 ? ",\n" : ""), p, s, runs / s
			}
		}
	' "$best"
	printf '\n    ]\n  }\n'
} >"$scaling"

{
	printf '{\n'
	printf '  "generated_by": "scripts/bench.sh",\n'
	printf '  "mode": "%s",\n' "$mode"
	printf '  "go_version": "%s",\n' "$(go env GOVERSION)"
	printf '  "cpu": "%s",\n' "$cpu"
	cat <<'EOF'
  "baseline": {
    "recorded": "pre-optimization tree (commit e30c956), same harness and machine; Intel(R) Xeon(R) Processor @ 2.10GHz",
    "benchmarks": {
      "BenchmarkFig8ExecutionTime": {"ns_per_op": 7105761392, "B_per_op": 172429080, "allocs_per_op": 3596174, "itesp_vs_synergy_pct": 81.16},
      "BenchmarkStreamingReads": {"ns_per_op": 3277, "B_per_op": 104, "allocs_per_op": 2},
      "BenchmarkRandomMix": {"ns_per_op": 4602, "B_per_op": 104, "allocs_per_op": 2},
      "BenchmarkIdleTick": {"ns_per_op": 72.97, "B_per_op": 0, "allocs_per_op": 0},
      "BenchmarkTreeWalk": {"ns_per_op": 58.57},
      "BenchmarkCounterWrite": {"ns_per_op": 11.12},
      "BenchmarkVerifiedWrite": {"ns_per_op": 4375, "B_per_op": 2634, "allocs_per_op": 10},
      "BenchmarkVerifiedRead": {"ns_per_op": 2118, "B_per_op": 1904, "allocs_per_op": 7}
    }
  },
  "compute_gap_fast_forward": {
    "recorded": "sim.RunContext before (commit c432834) and after the idle fast-forward was extended to compute gaps in which cores only retire; min of 8 ABBA-interleaved trials at -benchtime 8x; 2-CPU Intel(R) Xeon(R) Processor host, go1.24.0",
    "before": {
      "BenchmarkSimLowMPKI/ep": {"ns_per_op": 114645268},
      "BenchmarkSimLowMPKI/perlbench": {"ns_per_op": 60134613},
      "BenchmarkSimNonSecure": {"ns_per_op": 21022999},
      "BenchmarkSimSynergy": {"ns_per_op": 95668110},
      "BenchmarkSimITESP": {"ns_per_op": 43532544}
    },
    "after": {
      "BenchmarkSimLowMPKI/ep": {"ns_per_op": 24697808},
      "BenchmarkSimLowMPKI/perlbench": {"ns_per_op": 23926274},
      "BenchmarkSimNonSecure": {"ns_per_op": 19161272},
      "BenchmarkSimSynergy": {"ns_per_op": 94554497},
      "BenchmarkSimITESP": {"ns_per_op": 39581602}
    }
  },
  "parallel_default": {
    "recorded": "BenchmarkFig8ExecutionTime (default Parallel) before (commit ceffcb2, pool of GOMAXPROCS-1 workers) and after (GOMAXPROCS workers); min of 8 ABBA-interleaved trials at -benchtime 2x; 2-CPU Intel(R) Xeon(R) Processor host, go1.24.0",
    "before": {
      "BenchmarkFig8ExecutionTime": {"ns_per_op": 4072746788, "B_per_op": 21913372, "allocs_per_op": 51932, "itesp_vs_synergy_pct": 81.16}
    },
    "after": {
      "BenchmarkFig8ExecutionTime": {"ns_per_op": 1929059569, "B_per_op": 21916188, "allocs_per_op": 51943, "itesp_vs_synergy_pct": 81.16}
    }
  },
  "current": {
    "benchmarks": {
EOF
	awk '
		/^Benchmark/ {
			name = $1
			sub(/-[0-9]+$/, "", name)
			line = sprintf("      \"%s\": {", name)
			innersep = ""
			for (i = 3; i + 1 <= NF; i += 2) {
				key = $(i + 1)
				gsub(/\//, "_per_", key)
				line = line sprintf("%s\"%s\": %s", innersep, key, $i)
				innersep = ", "
			}
			line = line "}"
			if (sep != "") print sep
			printf "%s", line
			sep = ","
		}
		END { print "" }
	' "$raw"
	printf '    }\n  },\n'
	cat "$scaling"
	printf '}\n'
} >"$out"

echo "wrote $out"
