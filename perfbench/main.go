// Command perfbench is the repository's benchmark. It runs one named
// workload against the simulator's public entry points (experiments.Fig8
// and sim.RunContext), checks the simulated results, and prints its
// metrics: a human-readable table, then one JSON object as the last line of
// standard output.
//
//	perfbench --workload fig8-sweep --seed 1 --seconds 20 --trace 0
//
// --trace 0 times whole repetitions and reports the end-to-end metrics;
// --trace 1 replays the workload through a step driver that counts and
// samples every layer boundary and reports the per-layer metrics. All
// times are host time; simulated statistics are checked, not timed. See
// README.md for the workloads and the layer → metric → workload table.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: fig8-sweep, low-mpki or mix8-rw-faults")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same simulated inputs")
	seconds := fs.Int("seconds", 20, "measurement budget; repetitions repeat until it is spent (at least one)")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be ≥ 1 and --trace 0 or 1")
		return 2
	}
	budget := time.Duration(*seconds) * time.Second

	var res result
	var errs []string
	if *traceMode == 0 {
		tr, err := timedRun(ctx, w, *seed, budget)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		m, tail, scale := tr.metrics()
		n := len(tr.reps)
		fmt.Fprintf(stdout, "workload %s  seed %d  repetitions %d  (%s)\n", w.name, *seed, n, w.why)
		rawWall := tr.reps[0].wall
		for _, r := range tr.reps {
			rawWall = min(rawWall, r.wall)
		}
		fmt.Fprintf(stdout, "host times scaled per repetition to a %.3fs speed kernel: median wall-time scale %.4f over %d kernel runs; unscaled best wall %.4fs\n",
			refKernelSeconds, scale, len(tr.kernel), rawWall.Seconds())
		perRep := fmt.Sprintf("median of %d repetitions", n)
		printMetrics(stdout, m, map[string]string{
			"wall_s":         perRep,
			"runs_per_s":     perRep,
			"sim_mops_per_s": perRep,
			"cpu_s":          perRep,
			"setup_s":        perRep,
			"alloc_mb":       perRep,
			"run_s.p50":      fmt.Sprintf("median of %d simulations, each the median of %d", tail.samples, n),
			"run_s.tail":     fmt.Sprintf("p%d of %d simulations, each the median of %d", tail.percentile, tail.samples, n),
		})
		fmt.Fprintf(stdout, "  %-26s %14.6f %-8s %d failed / %d attempted\n", "failed_frac",
			frac(float64(tr.failed), float64(tr.attempted)), "ratio", tr.failed, tr.attempted)
		res = result{Attempted: tr.attempted, Failed: tr.failed, Metrics: m}
		errs = tr.errs
	} else {
		tr, err := tracedRun(ctx, w, *seed, budget)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "workload %s  seed %d  traced passes %d  (per-pass values; n/a = layer not reached, reported as 0)\n", w.name, *seed, tr.passes)
		m := map[string]metric{}
		for _, lm := range tr.metrics() {
			m[lm.name] = metric{lm.value, lm.unit}
			note := lm.base
			if lm.na {
				note = "n/a on " + w.name
			}
			fmt.Fprintf(stdout, "  %-26s %14.6f %-8s %s\n", lm.name, lm.value, lm.unit, note)
		}
		res = result{Attempted: tr.attempted, Failed: tr.failed, Metrics: m}
		errs = tr.errs
	}
	for _, e := range errs {
		fmt.Fprintln(stderr, "perfbench: check failed:", e)
	}
	res.Correct = res.Failed == 0 && len(errs) == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// printMetrics prints metrics sorted by name, with an optional base note.
func printMetrics(w io.Writer, m map[string]metric, notes map[string]string) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-26s %14.6f %-8s %s\n", n, m[n].Value, m[n].Unit, notes[n])
	}
}
