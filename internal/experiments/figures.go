package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/covert"
	"repro/internal/mem"
	"repro/internal/runspec"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Fig8Schemes are the eight secure configurations of Figure 8, in order —
// derived from the backend registry's "fig8" tag, so a backend registered
// with that tag joins the figure without touching this package.
var Fig8Schemes = core.NamesTagged("fig8")

// SchemeResult is one scheme's summary across benchmarks.
type SchemeResult struct {
	// Norm maps benchmark -> metric normalized to the non-secure baseline.
	Norm map[string]float64
	// GeoAll / GeoTop15 are geometric means over all benchmarks and over
	// the top-15 memory-intensive ones.
	GeoAll, GeoTop15 float64
}

// Fig8Result holds normalized execution times per scheme.
type Fig8Result struct {
	Schemes map[string]*SchemeResult
	// Raw holds the per-run summaries keyed "scheme/bench" for reuse.
	Raw map[string]*sim.Summary
}

// Improvement returns the top-15 performance improvement of scheme a over
// scheme b (e.g. ITESP over Synergy: the paper's headline 64%): perf =
// 1/time, improvement = perf_a/perf_b - 1.
func (r *Fig8Result) Improvement(a, b string) float64 {
	return r.Schemes[b].GeoTop15/r.Schemes[a].GeoTop15 - 1
}

// runNormalized runs the given schemes over benchmarks and returns times
// normalized per benchmark to the non-secure baseline.
func runNormalized(o Options, schemes []string, benchDefaults []string, cores, channels int) (*Fig8Result, error) {
	if o.Cores > 0 {
		cores = o.Cores
	}
	if o.Channels > 0 {
		channels = o.Channels
	}
	specs := o.benchList(benchDefaults)
	var jobs []runspec.Named
	all := append([]string{"nonsecure"}, schemes...)
	for _, spec := range specs {
		for _, s := range all {
			jobs = append(jobs, runspec.Named{
				Key: s + "/" + spec.Name,
				Spec: runspec.Spec{
					Scheme: s, Benchmark: spec.Name, Cores: cores, Channels: channels,
					OpsPerCore: o.ops(), Seed: o.seed(),
				},
			})
		}
	}
	raw, err := runBatch(o, jobs)
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{Schemes: map[string]*SchemeResult{}, Raw: raw}
	top15 := map[string]bool{}
	for _, n := range workload.TopMemoryIntensive() {
		top15[n] = true
	}
	for _, s := range all {
		sr := &SchemeResult{Norm: map[string]float64{}}
		var allV, topV []float64
		for _, spec := range specs {
			base := raw["nonsecure/"+spec.Name]
			cur := raw[s+"/"+spec.Name]
			if base == nil || cur == nil {
				continue
			}
			v := float64(cur.Cycles) / float64(base.Cycles)
			sr.Norm[spec.Name] = v
			allV = append(allV, v)
			if top15[spec.Name] {
				topV = append(topV, v)
			}
		}
		sr.GeoAll = stats.GeoMean(allV)
		sr.GeoTop15 = stats.GeoMean(topV)
		res.Schemes[s] = sr
	}
	return res, nil
}

func printNormTable(o Options, title string, schemes []string, specs []workload.Spec, r *Fig8Result) {
	w := o.writer()
	fmt.Fprintf(w, "%s\n", title)
	fmt.Fprintf(w, "%-12s", "benchmark")
	for _, s := range schemes {
		fmt.Fprintf(w, " %15s", s)
	}
	fmt.Fprintln(w)
	for _, spec := range specs {
		fmt.Fprintf(w, "%-12s", spec.Name)
		for _, s := range schemes {
			fmt.Fprintf(w, " %15.3f", r.Schemes[s].Norm[spec.Name])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-12s", "geomean")
	for _, s := range schemes {
		fmt.Fprintf(w, " %15.3f", r.Schemes[s].GeoAll)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-12s", "geo-top15")
	for _, s := range schemes {
		fmt.Fprintf(w, " %15.3f", r.Schemes[s].GeoTop15)
	}
	fmt.Fprintln(w)
}

// Fig8 reproduces Figure 8: execution time of the eight secure schemes over
// all 31 benchmarks, normalized to the non-secure baseline (4 cores, 1
// channel).
func Fig8(o Options) (*Fig8Result, error) {
	r, err := runNormalized(o, Fig8Schemes, allBenchmarks(), 4, 1)
	if err != nil {
		return nil, err
	}
	printNormTable(o, "Fig 8: normalized execution time (4 cores, 1 channel)",
		Fig8Schemes, o.benchList(allBenchmarks()), r)
	w := o.writer()
	fmt.Fprintf(w, "\nISO improvement over Synergy (top-15): %+.1f%%\n", 100*r.Improvement("itsynergy", "synergy"))
	fmt.Fprintf(w, "ITESP improvement over Synergy (top-15): %+.1f%%  (paper: +64%%)\n", 100*r.Improvement("itesp", "synergy"))
	fmt.Fprintf(w, "ITESP improvement over ITSynergy (top-15): %+.1f%%  (paper: +19%%)\n", 100*r.Improvement("itesp", "itsynergy"))
	return r, nil
}

// Fig9Row is one scheme's traffic breakdown: memory accesses per data
// operation, by metadata structure.
type Fig9Row struct {
	Scheme                   string
	MACReads, MACWrites      float64
	CtrReads, CtrWrites      float64
	TreeReads, TreeWrites    float64
	ParityReads, ParityWrite float64
	Total                    float64 // data (1.0) + all metadata
}

// Fig9 reproduces Figure 9: the breakdown of data+metadata accesses per
// read/write operation, averaged over the top-15 benchmarks.
func Fig9(o Options) ([]Fig9Row, error) {
	schemes := Fig8Schemes
	r, err := runNormalized(o, schemes, workload.TopMemoryIntensive(), 4, 1)
	if err != nil {
		return nil, err
	}
	specs := o.benchList(workload.TopMemoryIntensive())
	var rows []Fig9Row
	w := o.writer()
	fmt.Fprintln(w, "Fig 9: accesses per data operation (avg over top-15)")
	fmt.Fprintf(w, "%-16s %6s %6s %6s %6s %6s %6s %6s %6s %6s\n",
		"scheme", "mac.r", "mac.w", "ctr.r", "ctr.w", "tree.r", "tree.w", "par.r", "par.w", "total")
	for _, s := range schemes {
		var row Fig9Row
		row.Scheme = s
		var n float64
		for _, spec := range specs {
			res := r.Raw[s+"/"+spec.Name]
			if res == nil {
				continue
			}
			mr, mw := res.KindPerOp(mem.KindMAC)
			cr, cw := res.KindPerOp(mem.KindCounter)
			tr, tw := res.KindPerOp(mem.KindTree)
			pr, pw := res.KindPerOp(mem.KindParity)
			row.MACReads += mr
			row.MACWrites += mw
			row.CtrReads += cr
			row.CtrWrites += cw
			row.TreeReads += tr
			row.TreeWrites += tw
			row.ParityReads += pr
			row.ParityWrite += pw
			n++
		}
		if n > 0 {
			row.MACReads /= n
			row.MACWrites /= n
			row.CtrReads /= n
			row.CtrWrites /= n
			row.TreeReads /= n
			row.TreeWrites /= n
			row.ParityReads /= n
			row.ParityWrite /= n
		}
		row.Total = 1 + row.MACReads + row.MACWrites + row.CtrReads + row.CtrWrites +
			row.TreeReads + row.TreeWrites + row.ParityReads + row.ParityWrite
		rows = append(rows, row)
		fmt.Fprintf(w, "%-16s %6.2f %6.2f %6.2f %6.2f %6.2f %6.2f %6.2f %6.2f %6.2f\n",
			s, row.MACReads, row.MACWrites, row.CtrReads, row.CtrWrites,
			row.TreeReads, row.TreeWrites, row.ParityReads, row.ParityWrite, row.Total)
	}
	return rows, nil
}

// Fig10Result holds normalized memory energy and system EDP per scheme.
type Fig10Result struct {
	Energy map[string]*SchemeResult
	EDP    map[string]*SchemeResult
}

// Fig10 reproduces Figure 10: normalized memory energy and system EDP for
// the Figure 8 models (top-15 benchmarks).
func Fig10(o Options) (*Fig10Result, error) {
	r, err := runNormalized(o, Fig8Schemes, workload.TopMemoryIntensive(), 4, 1)
	if err != nil {
		return nil, err
	}
	specs := o.benchList(workload.TopMemoryIntensive())
	out := &Fig10Result{Energy: map[string]*SchemeResult{}, EDP: map[string]*SchemeResult{}}
	w := o.writer()
	fmt.Fprintln(w, "Fig 10: normalized memory energy / system EDP (top-15 geomean)")
	fmt.Fprintf(w, "%-16s %10s %10s\n", "scheme", "energy", "edp")
	for _, s := range append([]string{"nonsecure"}, Fig8Schemes...) {
		en := &SchemeResult{Norm: map[string]float64{}}
		ed := &SchemeResult{Norm: map[string]float64{}}
		var evs, dvs []float64
		for _, spec := range specs {
			base := r.Raw["nonsecure/"+spec.Name]
			cur := r.Raw[s+"/"+spec.Name]
			if base == nil || cur == nil {
				continue
			}
			ev := cur.MemoryJoules / base.MemoryJoules
			dv := cur.SystemEDP / base.SystemEDP
			en.Norm[spec.Name] = ev
			ed.Norm[spec.Name] = dv
			evs = append(evs, ev)
			dvs = append(dvs, dv)
		}
		en.GeoTop15 = stats.GeoMean(evs)
		ed.GeoTop15 = stats.GeoMean(dvs)
		out.Energy[s] = en
		out.EDP[s] = ed
		fmt.Fprintf(w, "%-16s %10.3f %10.3f\n", s, en.GeoTop15, ed.GeoTop15)
	}
	return out, nil
}

// Fig11Schemes are the Morphable-Counter configurations of Figure 11,
// derived from the backend registry's "fig11" tag.
var Fig11Schemes = core.NamesTagged("fig11")

// Fig11 reproduces Figure 11: execution time (including local-counter
// overflow penalties) for Synergy and the Morphable-Counter family on an
// 8-core, 2-channel system.
func Fig11(o Options) (*Fig8Result, error) {
	r, err := runNormalized(o, Fig11Schemes, workload.TopMemoryIntensive(), 8, 2)
	if err != nil {
		return nil, err
	}
	printNormTable(o, "Fig 11: normalized execution time with Morphable Counters (8 cores, 2 channels)",
		Fig11Schemes, o.benchList(workload.TopMemoryIntensive()), r)
	w := o.writer()
	fmt.Fprintf(w, "\nITESP64 improvement over SYN128 (top-15): %+.1f%%  (paper: +27%%)\n",
		100*r.Improvement("itesp64", "syn128"))
	fmt.Fprintf(w, "ITESP64 improvement over ITESP128 (top-15): %+.1f%%  (paper: +1.4%%)\n",
		100*r.Improvement("itesp64", "itesp128"))
	return r, nil
}

// Fig12Row summarizes one (scheme, core-count) configuration.
type Fig12Row struct {
	Scheme     string
	Cores      int
	Channels   int
	NormTime   float64
	NormEnergy float64
	NormEDP    float64
}

// Fig12 reproduces Figure 12: execution time, memory energy, and system EDP
// for Synergy and ITESP at 4 cores / 1 channel and 8 cores / 2 channels,
// normalized to the matching non-secure baseline (top-15 geomean).
func Fig12(o Options) ([]Fig12Row, error) {
	var rows []Fig12Row
	w := o.writer()
	fmt.Fprintln(w, "Fig 12: core-count sensitivity (top-15 geomean)")
	fmt.Fprintf(w, "%-10s %6s %9s %10s %10s %10s\n", "scheme", "cores", "channels", "time", "energy", "edp")
	for _, cc := range []struct{ cores, chans int }{{4, 1}, {8, 2}} {
		r, err := runNormalized(o, []string{"synergy", "itesp"}, workload.TopMemoryIntensive(), cc.cores, cc.chans)
		if err != nil {
			return nil, err
		}
		specs := o.benchList(workload.TopMemoryIntensive())
		for _, s := range []string{"synergy", "itesp"} {
			var tv, ev, dv []float64
			for _, spec := range specs {
				base := r.Raw["nonsecure/"+spec.Name]
				cur := r.Raw[s+"/"+spec.Name]
				if base == nil || cur == nil {
					continue
				}
				tv = append(tv, float64(cur.Cycles)/float64(base.Cycles))
				ev = append(ev, cur.MemoryJoules/base.MemoryJoules)
				dv = append(dv, cur.SystemEDP/base.SystemEDP)
			}
			row := Fig12Row{Scheme: s, Cores: cc.cores, Channels: cc.chans,
				NormTime: stats.GeoMean(tv), NormEnergy: stats.GeoMean(ev), NormEDP: stats.GeoMean(dv)}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-10s %6d %9d %10.3f %10.3f %10.3f\n",
				s, cc.cores, cc.chans, row.NormTime, row.NormEnergy, row.NormEDP)
		}
	}
	return rows, nil
}

// Fig13Row summarizes one (scheme, cache-size) configuration.
type Fig13Row struct {
	Scheme     string
	MetaKBCore int
	NormTime   float64
	NormEnergy float64
	NormEDP    float64
}

// Fig13 reproduces Figure 13: sensitivity to the per-core metadata cache
// budget (16, 32, 64 KB per core; top-15 geomean, 4 cores / 1 channel).
func Fig13(o Options) ([]Fig13Row, error) {
	var rows []Fig13Row
	w := o.writer()
	fmt.Fprintln(w, "Fig 13: metadata cache size sensitivity (top-15 geomean)")
	fmt.Fprintf(w, "%-10s %8s %10s %10s %10s\n", "scheme", "KB/core", "time", "energy", "edp")
	specs := o.benchList(workload.TopMemoryIntensive())
	for _, kb := range []int{16, 32, 64} {
		var jobs []runspec.Named
		for _, spec := range specs {
			for _, s := range []string{"nonsecure", "synergy", "itesp"} {
				jobs = append(jobs, runspec.Named{
					Key: s + "/" + spec.Name,
					Spec: runspec.Spec{
						Scheme: s, Benchmark: spec.Name, Cores: 4, Channels: 1,
						OpsPerCore: o.ops(), Seed: o.seed(), MetaKBPerCore: kb,
					},
				})
			}
		}
		raw, err := runBatch(o, jobs)
		if err != nil {
			return nil, err
		}
		for _, s := range []string{"synergy", "itesp"} {
			var tv, ev, dv []float64
			for _, spec := range specs {
				base := raw["nonsecure/"+spec.Name]
				cur := raw[s+"/"+spec.Name]
				if base == nil || cur == nil {
					continue
				}
				tv = append(tv, float64(cur.Cycles)/float64(base.Cycles))
				ev = append(ev, cur.MemoryJoules/base.MemoryJoules)
				dv = append(dv, cur.SystemEDP/base.SystemEDP)
			}
			row := Fig13Row{Scheme: s, MetaKBCore: kb,
				NormTime: stats.GeoMean(tv), NormEnergy: stats.GeoMean(ev), NormEDP: stats.GeoMean(dv)}
			rows = append(rows, row)
			fmt.Fprintf(w, "%-10s %8d %10.3f %10.3f %10.3f\n", s, kb, row.NormTime, row.NormEnergy, row.NormEDP)
		}
	}
	return rows, nil
}

// Fig15Row summarizes ITESP under one address-mapping policy.
type Fig15Row struct {
	Policy string
	// ImprovementPct is the top-15 performance improvement over Synergy
	// with its best (column) policy.
	ImprovementPct float64
	MetaMissRate   float64
	RowHitRate     float64
}

// Fig15 reproduces Figure 15: the impact of the four address-mapping
// policies on ITESP performance, metadata cache miss rate, and row-buffer
// hit rate (4 cores, 1 channel, top-15). The ITESP variant with four
// parities per leaf (Section III-E) is used, as in the paper's discussion.
func Fig15(o Options) ([]Fig15Row, error) {
	specs := o.benchList(workload.TopMemoryIntensive())
	var jobs []runspec.Named
	for _, spec := range specs {
		jobs = append(jobs, runspec.Named{Key: "synergy/" + spec.Name, Spec: runspec.Spec{
			Scheme: "synergy", Benchmark: spec.Name, Cores: 4, Channels: 1,
			OpsPerCore: o.ops(), Seed: o.seed(), Policy: "column",
		}})
		for _, pol := range []string{"column", "rank", "rbh2", "rbh4"} {
			jobs = append(jobs, runspec.Named{Key: pol + "/" + spec.Name, Spec: runspec.Spec{
				Scheme: "itesp4p", Benchmark: spec.Name, Cores: 4, Channels: 1,
				OpsPerCore: o.ops(), Seed: o.seed(), Policy: pol,
			}})
		}
	}
	raw, err := runBatch(o, jobs)
	if err != nil {
		return nil, err
	}
	var rows []Fig15Row
	w := o.writer()
	fmt.Fprintln(w, "Fig 15: ITESP address-mapping policies (top-15)")
	fmt.Fprintf(w, "%-8s %14s %14s %12s\n", "policy", "perf-vs-syn%", "metaMissRate", "rowHitRate")
	for _, pol := range []string{"column", "rank", "rbh2", "rbh4"} {
		var perf, miss, rbh []float64
		for _, spec := range specs {
			syn := raw["synergy/"+spec.Name]
			cur := raw[pol+"/"+spec.Name]
			if syn == nil || cur == nil {
				continue
			}
			perf = append(perf, float64(syn.Cycles)/float64(cur.Cycles))
			miss = append(miss, 1-cur.MetaCacheHitRate)
			rbh = append(rbh, cur.RowHitRate)
		}
		row := Fig15Row{Policy: pol,
			ImprovementPct: 100 * (stats.GeoMean(perf) - 1),
			MetaMissRate:   stats.ArithMean(miss),
			RowHitRate:     stats.ArithMean(rbh)}
		rows = append(rows, row)
		fmt.Fprintf(w, "%-8s %14.1f %14.3f %12.3f\n", row.Policy, row.ImprovementPct, row.MetaMissRate, row.RowHitRate)
	}
	return rows, nil
}

// Fig5 reproduces Figure 5: the covert channel on interleaved (A) vs
// isolated (B) enclave pages.
func Fig5(o Options) (interleaved, isolated []covert.Point) {
	w := o.writer()
	for _, iso := range []bool{false, true} {
		cfg := covert.DefaultConfig(iso)
		cfg.Seed = o.seed()
		pts := covert.Run(cfg)
		label := "A: interleaved (shared tree)"
		if iso {
			label = "B: isolated trees"
			isolated = pts
		} else {
			interleaved = pts
		}
		fmt.Fprintf(w, "Fig 5%s\n", label)
		fmt.Fprintf(w, "%8s %12s %12s %12s %12s %8s %12s\n",
			"blocks", "lat0.min", "lat0.max", "lat1.min", "lat1.max", "chan?", "bps")
		for _, p := range pts {
			fmt.Fprintf(w, "%8d %12.0f %12.0f %12.0f %12.0f %8v %12.0f\n",
				p.Blocks, p.Lat0Min, p.Lat0Max, p.Lat1Min, p.Lat1Max, p.Distinguishable, p.BandwidthBps)
		}
	}
	return interleaved, isolated
}
