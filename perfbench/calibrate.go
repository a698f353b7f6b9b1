package main

import "time"

// The host's speed drifts: on the shared 2-CPU reference host, the same
// repetition ran up to 45% slower for minutes at a time, in episodes
// longer than a run, and a fixed compute kernel slowed with it (the
// kernel's and the simulator's best-of-15 times correlated at 0.87 over
// six minutes). A timed run therefore times this kernel before its first
// repetition and after each one, and scales each repetition's host times
// to a host on which the kernel takes refKernelSeconds, using the mean of
// the kernel times on either side of it. Over those six minutes, scaled
// medians of 25 repetitions spread 0.04 (IQR/median) against 0.10 for raw
// medians. Part of a slow episode is time the host does not run the process
// at all, which wall time sees and CPU time does not, so CPU time is
// scaled by the kernel's CPU time and wall time by its wall time. The
// kernel is the benchmark's own code, so no change to the program moves
// it.
const refKernelSeconds = 0.120

// kernelTime is one timing of speedKernel.
type kernelTime struct{ wall, cpu time.Duration }

// repScale returns the wall-time and CPU-time scales of a repetition timed
// between two kernel runs.
func repScale(before, after kernelTime) (wall, cpu float64) {
	return refKernelSeconds / ((before.wall + after.wall).Seconds() / 2),
		refKernelSeconds / ((before.cpu + after.cpu).Seconds() / 2)
}

// kernelSink keeps the kernel's result live.
var kernelSink uint64

// speedKernel times a fixed, cache-resident, branchy integer loop — the
// kind of work the simulator's own loops do.
func speedKernel() kernelTime {
	cpu0 := cpuTime()
	t0 := time.Now()
	x := uint64(88172645463325252)
	var tbl [256]uint64
	var acc uint64
	for range 20_000_000 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if x&1 == 0 {
			acc += tbl[x>>56]
		} else {
			tbl[byte(x)] ^= acc + x
		}
	}
	kernelSink += acc
	return kernelTime{wall: time.Since(t0), cpu: cpuTime() - cpu0}
}
