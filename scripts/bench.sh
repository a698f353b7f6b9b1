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
#        scripts/bench.sh ab <rev>
#   full   default benchtime; stable numbers (~1 min)
#   smoke  -benchtime=1x: proves the benchmark paths run and the JSON is
#          well-formed (CI). Microbenchmark timings at one iteration are
#          noise; the Fig 8 number is real since its single iteration is a
#          complete simulation sweep.
#   ab     same-host paired comparison of git revision <rev> ("before")
#          against this working tree ("after"); see ab_compare below.
set -eu

cd "$(dirname "$0")/.."

# ab_compare extracts <rev> into a temporary directory (git archive),
# compiles the root, internal/sim and internal/dram test binaries of both
# trees, and runs min-of-N trials of BenchmarkFig8ExecutionTime,
# BenchmarkSim{NonSecure,Synergy,ITESP,LowMPKI} and the DRAM scheduler's
# Benchmark{MemoryTick,RandomMix,StreamingReads}
# ABBA-interleaved (odd trials run before first, even trials after first),
# which filters host-speed drift better than back-to-back repeats. Each
# binary runs from its own tree's package directory. It prints one JSON
# object {"recorded", "before", "after"} whose before/after map each
# benchmark to the fields of its fastest trial; a frozen before/after
# section of BENCH_hotloop.json is this object pasted into the heredoc
# below. Eight trials at 2 (Fig 8), 8 (internal/sim) and 500000
# (internal/dram) iterations take about four minutes on a 2-CPU host.
ab_compare() {
	rev="$1"
	trials=8
	fig8bt=2x
	simbt=8x
	drambt=500000x
	tmp="$(mktemp -d)"
	trap 'rm -rf "$tmp"' EXIT
	mkdir "$tmp/before"
	git archive "$rev" | tar -x -C "$tmp/before"
	for side in before after; do
		tree=.
		[ "$side" = before ] && tree="$tmp/before"
		(cd "$tree" && go test -c -o "$tmp/$side.root.test" . &&
			go test -c -o "$tmp/$side.sim.test" ./internal/sim &&
			go test -c -o "$tmp/$side.dram.test" ./internal/dram)
	done
	here="$(pwd)"
	runside() {
		tree="$here"
		[ "$1" = before ] && tree="$tmp/before"
		echo "trial $2: $1" >&2
		(cd "$tree" && "$tmp/$1.root.test" -test.run '^$' -test.bench '^BenchmarkFig8ExecutionTime$' \
			-test.benchtime "$fig8bt" -test.benchmem -test.timeout 30m) >"$tmp/out"
		(cd "$tree/internal/sim" && "$tmp/$1.sim.test" -test.run '^$' \
			-test.bench '^BenchmarkSim(NonSecure|Synergy|ITESP|LowMPKI)$' \
			-test.benchtime "$simbt" -test.benchmem -test.timeout 30m) >>"$tmp/out"
		(cd "$tree/internal/dram" && "$tmp/$1.dram.test" -test.run '^$' \
			-test.bench '^Benchmark(MemoryTick|RandomMix|StreamingReads)$' \
			-test.benchtime "$drambt" -test.benchmem -test.timeout 30m) >>"$tmp/out"
		sed -n -e "s/^Benchmark/$1 Benchmark/p" -e '/^cpu: /p' "$tmp/out" >>"$tmp/raw"
	}
	for t in $(seq 1 "$trials"); do
		if [ $((t % 2)) -eq 1 ]; then
			runside before "$t"
			runside after "$t"
		else
			runside after "$t"
			runside before "$t"
		fi
	done
	awk -v rev="$rev" -v head="$(git describe --always --dirty)" -v trials="$trials" \
		-v fig8bt="$fig8bt" -v simbt="$simbt" -v drambt="$drambt" -v ncpu="$(getconf _NPROCESSORS_ONLN)" \
		-v gover="$(go env GOVERSION)" '
		/^cpu: / {
			cpu = substr($0, 6)
			next
		}
		{
			side = $1
			name = $2
			sub(/-[0-9]+$/, "", name)
			fields = ""
			for (i = 4; i + 1 <= NF; i += 2) {
				key = $(i + 1)
				gsub(/\//, "_per_", key)
				fields = fields sprintf("%s\"%s\": %s", (fields == "" ? "" : ", "), key, $i)
			}
			k = side SUBSEP name
			if (!(k in best) || $4 + 0 < best[k]) {
				best[k] = $4 + 0
				rec[k] = fields
			}
			if (!(name in seen)) {
				seen[name] = 1
				order[++n] = name
			}
		}
		END {
			printf "{\n  \"recorded\": \"before: %s; after: the working tree (%s); ", rev, head
			printf "min of %s ABBA-interleaved trials at -benchtime %s (Fig 8), %s (internal/sim) and %s (internal/dram); ", trials, fig8bt, simbt, drambt
			printf "%s-CPU %s host, %s\",\n", ncpu, cpu, gover
			split("before after", sides, " ")
			for (s = 1; s <= 2; s++) {
				printf "  \"%s\": {\n", sides[s]
				sep = ""
				for (i = 1; i <= n; i++) {
					k = sides[s] SUBSEP order[i]
					if (k in rec) {
						printf "%s    \"%s\": {%s}", sep, order[i], rec[k]
						sep = ",\n"
					}
				}
				printf "\n  }%s\n", (s == 1 ? "," : "")
			}
			print "}"
		}
	' "$tmp/raw"
}

mode="${1:-full}"
benchtime=""
case "$mode" in
full) ;;
smoke) benchtime="-benchtime=1x" ;;
ab)
	if [ $# -ne 2 ]; then
		echo "usage: $0 ab <rev>" >&2
		exit 2
	fi
	ab_compare "$2"
	exit 0
	;;
*)
	echo "usage: $0 [full|smoke] | $0 ab <rev>" >&2
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
  "backpressure_freeze": {
    "recorded": "sim.RunContext before (commit 0ef9e04) and after cores frozen by backpressure stopped calling Cycle (with the missed blocked case and the flat DRAM queues removed); scripts/bench.sh ab: min of 8 ABBA-interleaved trials at -benchtime 2x (Fig 8) and 8x (internal/sim); 2-CPU Intel(R) Xeon(R) Processor host, go1.24.0",
    "before": {
      "BenchmarkFig8ExecutionTime": {"ns_per_op": 2047007999, "itesp_vs_synergy_pct": 81.16, "B_per_op": 21915620, "allocs_per_op": 51937},
      "BenchmarkSimNonSecure": {"ns_per_op": 22033120, "B_per_op": 309730, "allocs_per_op": 885},
      "BenchmarkSimSynergy": {"ns_per_op": 90449414, "B_per_op": 365796, "allocs_per_op": 1247},
      "BenchmarkSimITESP": {"ns_per_op": 41797121, "B_per_op": 366177, "allocs_per_op": 1205},
      "BenchmarkSimLowMPKI/ep": {"ns_per_op": 25192383, "B_per_op": 217827, "allocs_per_op": 962},
      "BenchmarkSimLowMPKI/perlbench": {"ns_per_op": 23449289, "B_per_op": 227811, "allocs_per_op": 991}
    },
    "after": {
      "BenchmarkFig8ExecutionTime": {"ns_per_op": 1704090549, "itesp_vs_synergy_pct": 81.16, "B_per_op": 21843460, "allocs_per_op": 51475},
      "BenchmarkSimNonSecure": {"ns_per_op": 17545986, "B_per_op": 307714, "allocs_per_op": 872},
      "BenchmarkSimSynergy": {"ns_per_op": 88416375, "B_per_op": 364434, "allocs_per_op": 1235},
      "BenchmarkSimITESP": {"ns_per_op": 37704820, "B_per_op": 364161, "allocs_per_op": 1192},
      "BenchmarkSimLowMPKI/ep": {"ns_per_op": 23345394, "B_per_op": 216079, "allocs_per_op": 949},
      "BenchmarkSimLowMPKI/perlbench": {"ns_per_op": 24000048, "B_per_op": 225949, "allocs_per_op": 978}
    }
  },
  "dram_candidate_lists": {
    "recorded": "internal/dram before (commit c92bb92) and after the per-rank memo stack gave way to oldest-first candidate lists (BenchmarkStreamingReads and BenchmarkRandomMix now share their traffic drivers with the allocation tests; StreamingReads no longer stops issuing at b.N+64, a tail of 64 of 500000 completions); scripts/bench.sh ab: min of 8 ABBA-interleaved trials at -benchtime 2x (Fig 8), 8x (internal/sim) and 500000x (internal/dram); 2-CPU Intel(R) Xeon(R) Processor host, go1.24.0",
    "before": {
      "BenchmarkFig8ExecutionTime": {"ns_per_op": 1702822518, "itesp_vs_synergy_pct": 81.16, "B_per_op": 21843580, "allocs_per_op": 51475},
      "BenchmarkSimNonSecure": {"ns_per_op": 18285407, "B_per_op": 307716, "allocs_per_op": 872},
      "BenchmarkSimSynergy": {"ns_per_op": 74672245, "B_per_op": 364434, "allocs_per_op": 1235},
      "BenchmarkSimITESP": {"ns_per_op": 36916420, "B_per_op": 364133, "allocs_per_op": 1192},
      "BenchmarkSimLowMPKI/ep": {"ns_per_op": 26694270, "B_per_op": 216079, "allocs_per_op": 949},
      "BenchmarkSimLowMPKI/perlbench": {"ns_per_op": 28342413, "B_per_op": 225977, "allocs_per_op": 979},
      "BenchmarkStreamingReads": {"ns_per_op": 450.5, "B_per_op": 0, "allocs_per_op": 0},
      "BenchmarkRandomMix": {"ns_per_op": 2737, "B_per_op": 0, "allocs_per_op": 0},
      "BenchmarkMemoryTick": {"ns_per_op": 241.9, "B_per_op": 0, "allocs_per_op": 0}
    },
    "after": {
      "BenchmarkFig8ExecutionTime": {"ns_per_op": 1105914836, "itesp_vs_synergy_pct": 81.16, "B_per_op": 21797436, "allocs_per_op": 51363},
      "BenchmarkSimNonSecure": {"ns_per_op": 12804421, "B_per_op": 306436, "allocs_per_op": 869},
      "BenchmarkSimSynergy": {"ns_per_op": 49672839, "B_per_op": 362498, "allocs_per_op": 1231},
      "BenchmarkSimITESP": {"ns_per_op": 23552679, "B_per_op": 362881, "allocs_per_op": 1189},
      "BenchmarkSimLowMPKI/ep": {"ns_per_op": 19812875, "B_per_op": 214825, "allocs_per_op": 946},
      "BenchmarkSimLowMPKI/perlbench": {"ns_per_op": 17733152, "B_per_op": 224669, "allocs_per_op": 975},
      "BenchmarkStreamingReads": {"ns_per_op": 400.2, "B_per_op": 0, "allocs_per_op": 0},
      "BenchmarkRandomMix": {"ns_per_op": 1534, "B_per_op": 0, "allocs_per_op": 0},
      "BenchmarkMemoryTick": {"ns_per_op": 117.8, "B_per_op": 0, "allocs_per_op": 0}
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
