package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/stats"
	"repro/internal/system"
)

// Table1Config renders the simulated-machine configuration (the paper's
// Table 1). It runs nothing.
func (h *Harness) Table1Config() *stats.Table {
	cfg := h.baseConfig("canneal")
	tb := stats.NewTable("Table 1: simulated CMP configuration", "parameter", "value")
	scale := "full (paper model)"
	if h.opts.Quick {
		scale = "quick (proportionally scaled)"
	}
	tb.AddRowf("scale", scale)
	tb.AddRowf("cores", fmt.Sprintf("%d, in-order, blocking, 1 access outstanding", cfg.Cores))
	tb.AddRowf("L1 data cache", fmt.Sprintf("%d sets x %d ways x 64B = %dKB, MESI, LRU",
		cfg.L1Sets, cfg.L1Ways, cfg.L1Sets*cfg.L1Ways*64/1024))
	tb.AddRowf("shared LLC", fmt.Sprintf("%d banks x %d sets x %d ways x 64B = %dMB, inclusive",
		cfg.Cores, cfg.LLCSetsPerBank, cfg.LLCWays, cfg.Cores*cfg.LLCSetsPerBank*cfg.LLCWays*64/(1024*1024)))
	tb.AddRowf("directory", fmt.Sprintf("per-bank slice, %d-way, coverage swept over {2,1,1/2,1/4,1/8,1/16}x of %d aggregate L1 blocks",
		cfg.DirWays, cfg.AggregateL1Blocks()))
	tb.AddRowf("network", "2D mesh, XY routing, 3-cycle routers, 1-cycle 16B links; control 1 flit, data 5 flits")
	tb.AddRowf("memory", "160-cycle latency, posted writebacks")
	tb.AddRowf("workloads", strings.Join(h.workloadList(), ", "))
	return tb
}

// profiled makes the run behind Table 2 and Fig 1: the ideal full-map
// directory with occupancy sampling.
func profiled(c *system.Config) {
	c.DirKind = system.DirFullMap
	c.SamplePeriod = 10_000
}

// Table2Workloads characterizes the workload suite under the ideal
// directory: accesses, write ratio, L1 miss rate, and the fraction of
// tracked blocks that are private (the paper's Table 2 / motivation data).
func (h *Harness) Table2Workloads() (*stats.Table, error) {
	tb := stats.NewTable("Table 2: workload characterization (ideal full-map directory)",
		"workload", "accesses", "write-ratio", "l1-miss-rate", "private-fraction", "dir-entries-live")
	res, err := h.perWorkload(profiled)
	if err != nil {
		return nil, err
	}
	for i, w := range h.workloadList() {
		r := res[i][0]
		live := float64(r.DirAllocations - r.DirRemovals)
		tb.AddRowf(w, r.Loads+r.Stores,
			float64(r.Stores)/float64(r.Loads+r.Stores),
			r.L1MissRate, r.AvgPrivateFraction, live)
	}
	return tb, nil
}

// Fig1PrivateFraction measures the enabler of the stash directory: the
// fraction of tracked blocks that are private (cached by exactly one core),
// sampled over the run under the ideal directory.
func (h *Harness) Fig1PrivateFraction() (*stats.Table, map[string]float64, error) {
	tb := stats.NewTable("Fig 1: fraction of directory entries tracking private blocks",
		"workload", "private-fraction")
	tb.Caption = "High private fractions are what make stashing profitable."
	res, err := h.perWorkload(profiled)
	if err != nil {
		return nil, nil, err
	}
	vals := map[string]float64{}
	var sum float64 // summed in workload order, so MEAN is reproducible
	for i, w := range h.workloadList() {
		vals[w] = res[i][0].AvgPrivateFraction
		sum += vals[w]
		tb.AddRowf(w, vals[w])
	}
	vals["MEAN"] = sum / float64(len(res))
	tb.AddRowf("MEAN", vals["MEAN"])
	return tb, vals, nil
}

// normTime is execution time normalized to the baseline's.
func normTime(r, base *system.Results) float64 {
	return float64(r.Cycles) / float64(base.Cycles)
}

// coverageSweep is the paper's sweep: kinds over Coverages, one
// workload-major block normalized to sparse at 1x.
func (h *Harness) coverageSweep(title, caption string,
	metric func(r, base *system.Results) float64, kinds ...string) (*Grid, error) {
	block := make([]series, len(kinds))
	for i, k := range kinds {
		block[i] = dir(k, 0)
	}
	return h.grid(grid{
		title:   title,
		caption: caption,
		blocks:  [][]series{block},
		columns: coverageColumns(Coverages),
		metric:  metric,
	})
}

// Fig2Invalidations shows why under-provisioned sparse directories hurt:
// conflict-induced invalidations (recall + inclusion victims) per 1k
// accesses explode as coverage shrinks.
func (h *Harness) Fig2Invalidations() (*Grid, error) {
	return h.coverageSweep(
		"Fig 2: conflict invalidations per 1k accesses, conventional sparse directory",
		"Back-invalidations from directory conflicts; the cost the stash directory removes.",
		func(r, base *system.Results) float64 {
			return float64(r.InvalidationsConflict()) / float64(r.Loads+r.Stores) * 1000
		}, system.DirSparse)
}

// Fig3ExecTime is the headline figure: execution time (cycles), normalized
// to the sparse directory at 1x coverage, for sparse vs stash across the
// coverage sweep. The paper's claim: stash at 1/8 matches sparse at 1x.
func (h *Harness) Fig3ExecTime() (*Grid, error) {
	return h.coverageSweep(
		"Fig 3: normalized execution time vs directory coverage",
		"Normalized to sparse at 1x coverage. Lower is better.",
		normTime, system.DirSparse, system.DirStash)
}

// Fig4MissRate shows the L1 miss-rate inflation caused by coverage misses.
func (h *Harness) Fig4MissRate() (*Grid, error) {
	return h.coverageSweep(
		"Fig 4: L1 miss rate, normalized to sparse at 1x coverage",
		"Sparse inflates misses by invalidating live blocks; stash does not.",
		func(r, base *system.Results) float64 {
			return r.L1MissRate / base.L1MissRate
		}, system.DirSparse, system.DirStash)
}

// Fig5Traffic compares total NoC traffic (flit-hops), normalized.
func (h *Harness) Fig5Traffic() (*Grid, error) {
	return h.coverageSweep(
		"Fig 5: network traffic (flit-hops), normalized to sparse at 1x coverage",
		"Includes the stash directory's discovery broadcast traffic.",
		func(r, base *system.Results) float64 {
			return float64(r.TotalFlitHops) / float64(base.TotalFlitHops)
		}, system.DirSparse, system.DirStash)
}

// Fig5TrafficBreakdown renders the flit-hop composition by message class
// for one coverage point (the paper breaks one bar down per class).
func (h *Harness) Fig5TrafficBreakdown(coverage float64) (*stats.Table, error) {
	classes := []string{"request", "response", "invalidation", "ack", "writeback", "discovery", "discovery-resp"}
	tb := stats.NewTable(
		fmt.Sprintf("Fig 5b: traffic breakdown by message class at %s coverage (flit-hop share)", covLabel(coverage)),
		append([]string{"workload", "directory"}, classes...)...)
	kinds := []string{system.DirSparse, system.DirStash}
	res, err := h.perWorkload(dir(kinds[0], coverage).set, dir(kinds[1], coverage).set)
	if err != nil {
		return nil, err
	}
	for i, w := range h.workloadList() {
		for k, kind := range kinds {
			r := res[i][k]
			row := []string{w, kind}
			for _, class := range classes {
				row = append(row, fmt.Sprintf("%.3f", float64(r.FlitHopsByClass[class])/float64(r.TotalFlitHops)))
			}
			tb.AddRow(row...)
		}
	}
	return tb, nil
}

// Fig6Discovery characterizes the stash directory's overhead mechanism:
// discovery broadcasts per 1k LLC accesses and the fraction that found
// nothing (stale hidden bits).
func (h *Harness) Fig6Discovery() (*stats.Table, map[float64]float64, error) {
	header := []string{"workload"}
	sets := make([]func(*system.Config), len(Coverages))
	for i, c := range Coverages {
		header = append(header, covLabel(c))
		sets[i] = dir(system.DirStash, c).set
	}
	tb := stats.NewTable("Fig 6: discovery broadcasts per 1k LLC accesses (stash)", header...)
	tb.Caption = "Parenthesized: fraction of discoveries that found no copy (stale hidden bit)."
	res, err := h.perWorkload(sets...)
	if err != nil {
		return nil, nil, err
	}
	means := map[float64]float64{}
	for i, w := range h.workloadList() {
		row := []string{w}
		for j, cov := range Coverages {
			r := res[i][j]
			stale := 0.0
			if r.DiscoveryBroadcasts > 0 {
				stale = float64(r.DiscoveryStale) / float64(r.DiscoveryBroadcasts)
			}
			row = append(row, fmt.Sprintf("%.2f (%.2f)", r.DiscoveryPer1kLLCAccesses(), stale))
			means[cov] += r.DiscoveryPer1kLLCAccesses() / float64(len(res))
		}
		tb.AddRow(row...)
	}
	return tb, means, nil
}

// Fig7Energy compares directory energy (dynamic + leakage), normalized to
// sparse at 1x.
func (h *Harness) Fig7Energy() (*Grid, error) {
	return h.coverageSweep(
		"Fig 7: directory energy (dynamic + leakage), normalized to sparse at 1x coverage",
		"Smaller directories leak less; stash adds discovery traffic but shrinks 8x.",
		func(r, base *system.Results) float64 {
			return r.Energy.DirTotal() / base.Energy.DirTotal()
		}, system.DirSparse, system.DirStash)
}

// Fig7EnergyTotal compares whole-system energy, normalized.
func (h *Harness) Fig7EnergyTotal() (*Grid, error) {
	return h.coverageSweep(
		"Fig 7b: total system energy, normalized to sparse at 1x coverage",
		"",
		func(r, base *system.Results) float64 {
			return r.Energy.Total() / base.Energy.Total()
		}, system.DirSparse, system.DirStash)
}

// Fig8Associativity is the sensitivity of both organizations to directory
// associativity at 1/8 coverage.
func (h *Harness) Fig8Associativity() (*Grid, error) {
	var cols []column
	for _, ways := range []int{2, 4, 8, 16} {
		cols = append(cols, column{label: fmt.Sprintf("%d-way", ways), set: func(c *system.Config) { c.DirWays = ways }})
	}
	return h.grid(grid{
		title:   "Fig 8: normalized execution time vs directory associativity at 1/8 coverage",
		blocks:  apart(0.125),
		columns: cols,
		metric:  normTime,
	})
}

// Fig9Scaling compares sparse and stash at 1/8 coverage as the core count
// grows; the conflict problem worsens with scale, stash's advantage grows.
func (h *Harness) Fig9Scaling() (*Grid, error) {
	return h.grid(grid{
		title:   "Fig 9: execution time at 1/8 coverage normalized to same-core-count sparse@1x",
		blocks:  apart(0.125),
		columns: coreColumns([]int{16, 32, 64}),
		metric:  normTime,
	})
}

// Table3Occupancy reports directory occupancy and entry churn at 1/4
// coverage: the stash directory keeps its slots full of useful entries.
func (h *Harness) Table3Occupancy() (*stats.Table, error) {
	tb := stats.NewTable("Table 3: directory occupancy and eviction mix at 1/4 coverage",
		"workload", "directory", "occupancy", "stash-evictions", "recall-evictions", "evictions-per-1k-acc")
	kinds := []string{system.DirSparse, system.DirStash}
	sample := func(c *system.Config) { c.SamplePeriod = 10_000 }
	res, err := h.perWorkload(chain(dir(kinds[0], 0.25).set, sample), chain(dir(kinds[1], 0.25).set, sample))
	if err != nil {
		return nil, err
	}
	for i, w := range h.workloadList() {
		for k, kind := range kinds {
			r := res[i][k]
			evPerK := float64(r.StashEvictions+r.RecallEvictions) / float64(r.Loads+r.Stores) * 1000
			tb.AddRowf(w, kind, r.AvgDirOccupancy, r.StashEvictions, r.RecallEvictions, evPerK)
		}
	}
	return tb, nil
}

// Fig10Cuckoo (extension) compares the cuckoo directory — conflict-free but
// strictly inclusive — against sparse and stash at matched sizes, isolating
// how much of stash's win is relaxed inclusion rather than conflict
// avoidance.
func (h *Harness) Fig10Cuckoo() (*Grid, error) {
	return h.coverageSweep(
		"Fig 10 (extension): normalized execution time — sparse vs cuckoo vs stash",
		"Cuckoo removes set conflicts but still back-invalidates on capacity; stash relaxes inclusion.",
		normTime, system.DirSparse, system.DirCuckoo, system.DirStash)
}

// Fig11Ablation (ablation) compares stash victim policies (E/M-only vs
// also singleton-Shared) and silent vs notified clean evictions at 1/8
// coverage.
func (h *Harness) Fig11Ablation() (*stats.Table, error) {
	tb := stats.NewTable("Fig 11 (ablation): stash variants at 1/8 coverage, normalized execution time",
		"workload", "stash", "stash-ss", "stash silent-evict", "stash-ss silent-evict")
	sets := []func(*system.Config){sparseAt1x}
	for _, silent := range []bool{false, true} {
		for _, kind := range []string{system.DirStash, system.DirStashSS} {
			sets = append(sets, chain(dir(kind, 0.125).set, func(c *system.Config) { c.SilentCleanEvictions = silent }))
		}
	}
	res, err := h.perWorkload(sets...)
	if err != nil {
		return nil, err
	}
	for i, w := range h.workloadList() {
		row := []string{w}
		for _, r := range res[i][1:] {
			row = append(row, fmt.Sprintf("%.3f", normTime(r, res[i][0])))
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

// Fig12ProtocolVariants (extension) verifies the headline comparison is
// robust to the protocol modeling choices this simulator makes: data
// transfer style (directory-centric two-hop vs owner-forwarded three-hop)
// and core memory-level parallelism (1 vs 4 MSHRs). Each cell is the
// stash@1/8 (and sparse@1/8) time normalized to the same-variant sparse@1x
// baseline.
func (h *Harness) Fig12ProtocolVariants() (*Grid, error) {
	var cols []column
	for _, mshrs := range []int{1, 4} {
		for _, hops := range []int{2, 3} {
			cols = append(cols, column{label: fmt.Sprintf("%dhop/%dmshr", hops, mshrs), shared: func(c *system.Config) {
				c.ThreeHopForwarding = hops == 3
				c.MSHRs = mshrs
			}})
		}
	}
	return h.grid(grid{
		title:   "Fig 12 (extension): stash@1/8 vs sparse@1/8 under protocol variants, normalized to same-variant sparse@1x",
		blocks:  apart(0.125),
		columns: cols,
		metric:  normTime,
	})
}

// Fig13EntryFormat (extension) compares directory entry formats at 1/8
// coverage: full-map sharer vectors versus Dir_P-B limited pointers with
// broadcast-on-overflow. Reported per format: normalized execution time,
// normalized directory energy (narrower entries leak and switch less), and
// broadcast invalidations per 1k accesses.
func (h *Harness) Fig13EntryFormat() (*stats.Table, map[string]float64, error) {
	limits := []int{0, 4, 2, 1} // pointers per entry; 0 is the full-map entry
	format := func(limit int) string {
		if limit == 0 {
			return "fullmap-entry"
		}
		return fmt.Sprintf("ptr%d-B", limit)
	}
	tb := stats.NewTable("Fig 13 (extension): stash@1/8 under directory entry formats",
		"workload", "format", "norm-time", "norm-dir-energy", "bcast-invs-per-1k-acc", "entry-bits")
	sets := []func(*system.Config){sparseAt1x}
	for _, limit := range limits {
		sets = append(sets, chain(dir(system.DirStash, 0.125).set, func(c *system.Config) { c.PointerLimit = limit }))
	}
	res, err := h.perWorkload(sets...)
	if err != nil {
		return nil, nil, err
	}
	gmTime := make([][]float64, len(limits))
	for i, w := range h.workloadList() {
		base := res[i][0]
		for j, r := range res[i][1:] {
			normTime := normTime(r, base)
			gmTime[j] = append(gmTime[j], normTime)
			bcastPerK := float64(r.BroadcastInvalidations) / float64(r.Loads+r.Stores) * 1000
			tb.AddRowf(w, format(limits[j]), normTime,
				r.Energy.DirTotal()/base.Energy.DirTotal(), bcastPerK, r.Config.DirEntryBits())
		}
	}
	gm := map[string]float64{}
	for j, limit := range limits {
		gm[format(limit)] = geomean(gmTime[j])
		tb.AddRowf("GEOMEAN", format(limit), gm[format(limit)], "", "", "")
	}
	return tb, gm, nil
}

// Fig14PrivateL2 (extension) adds the private L2 the paper's machine class
// carries (128KB per core at full scale, scaled with the quick machine) and
// repeats the headline comparison. Private L2s multiply the capacity the
// directory must cover, so under-provisioned sparse directories hurt even
// more while the stash directory keeps absorbing the pressure.
func (h *Harness) Fig14PrivateL2() (*Grid, error) {
	cols := coverageColumns([]float64{1, 0.25, 0.125})
	for i := range cols {
		cols[i].shared = func(c *system.Config) {
			// 4x the L1's capacity, 8-way: 128KB at paper scale, 64KB quick.
			c.L2Sets = c.L1Sets * 2
			c.L2Ways = c.L1Ways * 2
		}
	}
	return h.grid(grid{
		title:   "Fig 14 (extension): normalized execution time with private L2s (coverage vs aggregate L2 capacity)",
		caption: "Normalized to sparse@1x with the same L2 hierarchy.",
		blocks:  apart(0),
		columns: cols,
		metric:  normTime,
	})
}

// Fig15ReplacementPolicy (ablation) sweeps the directory replacement
// policy at 1/8 coverage. The stash directory prefers stashable victims
// regardless of recency, so it should be far less policy-sensitive than
// the conventional sparse directory.
func (h *Harness) Fig15ReplacementPolicy() (*Grid, error) {
	var cols []column
	for _, p := range []cache.PolicyKind{cache.LRU, cache.TreePLRU, cache.NRU, cache.Random} {
		cols = append(cols, column{label: p.String(), set: func(c *system.Config) { c.ReplacementPolicy = p }})
	}
	return h.grid(grid{
		title:   "Fig 15 (ablation): normalized execution time vs directory replacement policy at 1/8 coverage",
		blocks:  apart(0.125),
		columns: cols,
		metric:  normTime,
	})
}
