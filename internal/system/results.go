package system

import (
	"fmt"
	"strings"

	"repro/internal/coherence"
	"repro/internal/energy"
	"repro/internal/noc"
	"repro/internal/sim"
)

// Results aggregates the cross-component metrics one simulation produced.
// Every figure and table in EXPERIMENTS.md is computed from these fields.
type Results struct {
	Config Config

	// Time.
	Cycles uint64
	// EventsRun is how many discrete events the engine executed; with
	// Cycles it gives the event density the scheduler benchmarks report.
	EventsRun uint64
	// AccessesPerKCycle is aggregate throughput: total accesses completed
	// per thousand cycles (the performance metric; execution time for a
	// fixed access count is Cycles).
	AccessesPerKCycle float64

	// Private-cache behavior. With an L2, L1Misses counts hierarchy
	// (network) misses and L2Hits/L2Misses split the L1-miss stream.
	Loads, Stores  int64
	L1Hits         int64
	L2Hits         int64
	L2Misses       int64
	L1Misses       int64
	L1MissRate     float64
	CoverageMisses int64
	AvgMissLatency float64

	// Invalidations received by L1s, by cause.
	InvsDemand   int64
	InvsRecall   int64
	InvsLLCEvict int64
	SpuriousInvs int64
	// BroadcastInvalidations counts overflow broadcasts sent by banks
	// under limited-pointer entry formats.
	BroadcastInvalidations int64

	// Directory behavior (summed over banks).
	DirLookups        int64
	DirHits           int64
	DirMisses         int64
	DirAllocations    int64
	DirRemovals       int64
	StashEvictions    int64
	RecallEvictions   int64
	CuckooRelocations int64
	DirEntriesTotal   int
	RealizedCoverage  float64

	// Stash discovery.
	DiscoveryBroadcasts int64
	DiscoveryProbes     int64
	DiscoveryFound      int64
	DiscoveryStale      int64
	HiddenSet           int64
	HiddenCleared       int64

	// LLC and memory.
	LLCAccesses int64
	LLCMisses   int64
	MemReads    int64
	MemWrites   int64

	// Network.
	TotalFlitHops   int64
	FlitHopsByClass map[string]int64

	// Occupancy sampling (when Config.SamplePeriod > 0).
	AvgDirOccupancy    float64
	AvgPrivateFraction float64
	Sampled            bool

	// Energy estimate.
	Energy energy.Breakdown
}

// Clone returns a deep copy of r: mutating the copy (including its map
// and the embedded Config's reference fields) cannot affect the receiver.
// The runner's result cache relies on this to hand out isolated results on
// cache hits.
func (r *Results) Clone() *Results {
	if r == nil {
		return nil
	}
	c := *r
	if r.FlitHopsByClass != nil {
		c.FlitHopsByClass = make(map[string]int64, len(r.FlitHopsByClass))
		//stash:ignore determinism map-to-map copy is order-insensitive
		for k, v := range r.FlitHopsByClass {
			c.FlitHopsByClass[k] = v
		}
	}
	if r.Config.CustomMix != nil {
		mix := *r.Config.CustomMix
		c.Config.CustomMix = &mix
	}
	if r.Config.TraceFiles != nil {
		c.Config.TraceFiles = append([]string(nil), r.Config.TraceFiles...)
	}
	return &c
}

// collect reads the components' typed stat structs into a Results. cycles
// and events come from the caller because the serial path reads them off
// the single engine while the parallel path aggregates per-tile engines
// (with all per-tile statistics already folded into fab).
func collect(cfg Config, fab *coherence.Fabric, procs []*coherence.Processor, sampler *occupancySampler, cycles sim.Cycle, events uint64) *Results {
	r := &Results{Config: cfg, Cycles: uint64(cycles), EventsRun: events}

	var missLatSum, missLatN int64
	for _, l1 := range fab.L1s {
		s := l1.Stats()
		r.Loads += s.Loads.Value()
		r.Stores += s.Stores.Value()
		r.L1Hits += s.Hits.Value()
		r.L1Misses += s.Misses.Value()
		r.CoverageMisses += s.CoverageMisses.Value()
		r.InvsDemand += s.Invalidations[coherence.ReasonDemand].Value()
		r.InvsRecall += s.Invalidations[coherence.ReasonRecall].Value()
		r.InvsLLCEvict += s.Invalidations[coherence.ReasonLLCEvict].Value()
		r.SpuriousInvs += s.SpuriousInvs.Value()
		r.L2Hits += s.L2Hits.Value()
		r.L2Misses += s.L2Misses.Value()
		missLatSum += s.MissLatency.Sum()
		missLatN += s.MissLatency.Count()
	}
	if missLatN > 0 {
		r.AvgMissLatency = float64(missLatSum) / float64(missLatN)
	}
	total := r.Loads + r.Stores
	if total > 0 {
		r.L1MissRate = float64(r.L1Misses) / float64(total)
	}
	if r.Cycles > 0 {
		r.AccessesPerKCycle = float64(total) / float64(r.Cycles) * 1000
	}

	var llcHits int64
	for _, bank := range fab.Banks {
		d := bank.Directory().Stats()
		r.DirLookups += d.Lookups.Value()
		r.DirHits += d.Hits.Value()
		r.DirMisses += d.Misses.Value()
		r.DirAllocations += d.Allocations.Value()
		r.DirRemovals += d.Removals.Value()
		r.StashEvictions += d.StashEvictions.Value()
		r.RecallEvictions += d.RecallEvictions.Value()
		r.CuckooRelocations += d.Relocations.Value()
		r.DirEntriesTotal += bank.Directory().Capacity()

		b := bank.Stats()
		r.DiscoveryBroadcasts += b.DiscoveryBroadcasts.Value()
		r.DiscoveryProbes += b.DiscoveryProbesSent.Value()
		r.DiscoveryFound += b.DiscoveryFound.Value()
		r.DiscoveryStale += b.DiscoveryStale.Value()
		r.HiddenSet += b.HiddenSet.Value()
		r.HiddenCleared += b.HiddenCleared.Value()
		r.BroadcastInvalidations += b.BroadcastInvalidations.Value()

		l := bank.LLC().Stats()
		llcHits += l.Hits.Value()
		r.LLCMisses += l.Misses.Value()
	}
	r.LLCAccesses = llcHits + r.LLCMisses
	if r.DirEntriesTotal > 0 {
		r.RealizedCoverage = float64(r.DirEntriesTotal) / float64(cfg.AggregatePrivateBlocks())
	}

	r.MemReads = fab.Memory.Stats().Reads.Value()
	r.MemWrites = fab.Memory.Stats().Writes.Value()

	r.FlitHopsByClass = make(map[string]int64, int(noc.NumClasses))
	for c := noc.Class(0); c < noc.NumClasses; c++ {
		v := fab.Mesh.FlitHops(c)
		r.FlitHopsByClass[c.String()] = v
		r.TotalFlitHops += v
	}

	if sampler != nil {
		r.AvgDirOccupancy, r.AvgPrivateFraction, r.Sampled = sampler.averages()
	}

	dirWays := cfg.DirWays
	if cfg.DirKind == DirFullMap {
		dirWays = 1
	}
	dirEntries := r.DirEntriesTotal
	if cfg.DirKind == DirFullMap {
		// The ideal directory has no fixed size; charge it as if it were
		// a 1x-coverage structure so energy comparisons stay meaningful.
		dirEntries = cfg.AggregatePrivateBlocks()
	}
	r.Energy = energy.Default().Compute(energy.Counts{
		Cycles:       r.Cycles,
		DirLookups:   r.DirLookups,
		DirWays:      dirWays,
		DirUpdates:   r.DirAllocations + r.DirRemovals + r.StashEvictions + r.CuckooRelocations,
		DirEntries:   dirEntries,
		DirEntryBits: cfg.DirEntryBits(),
		L1Accesses:   total,
		LLCAccesses:  r.LLCAccesses,
		LLCLines:     cfg.Cores * cfg.LLCSetsPerBank * cfg.LLCWays,
		FlitHops:     r.TotalFlitHops,
		MemAccesses:  r.MemReads + r.MemWrites,
	})
	return r
}

// InvalidationsConflict returns the conflict-induced invalidations (recall
// + LLC eviction) — the quantity the stash directory eliminates.
func (r *Results) InvalidationsConflict() int64 {
	return r.InvsRecall + r.InvsLLCEvict
}

// DiscoveryPer1kLLCAccesses normalizes discovery broadcasts the way the
// paper's overhead figure does.
func (r *Results) DiscoveryPer1kLLCAccesses() float64 {
	if r.LLCAccesses == 0 {
		return 0
	}
	return float64(r.DiscoveryBroadcasts) / float64(r.LLCAccesses) * 1000
}

// Summary renders a human-readable report.
func (r *Results) Summary() string {
	var b strings.Builder
	c := r.Config
	fmt.Fprintf(&b, "workload=%s dir=%s coverage=%.4g cores=%d\n", c.WorkloadName(), c.DirKind, c.Coverage, c.Cores)
	fmt.Fprintf(&b, "  cycles=%d  throughput=%.2f acc/kcycle  l1-miss-rate=%.4f  avg-miss-latency=%.1f\n",
		r.Cycles, r.AccessesPerKCycle, r.L1MissRate, r.AvgMissLatency)
	fmt.Fprintf(&b, "  invalidations: demand=%d recall=%d llc-evict=%d  coverage-misses=%d\n",
		r.InvsDemand, r.InvsRecall, r.InvsLLCEvict, r.CoverageMisses)
	fmt.Fprintf(&b, "  directory: entries=%d lookups=%d miss-rate=%.3f stash-evictions=%d recall-evictions=%d\n",
		r.DirEntriesTotal, r.DirLookups, safeDiv(r.DirMisses, r.DirLookups), r.StashEvictions, r.RecallEvictions)
	if r.DiscoveryBroadcasts > 0 {
		fmt.Fprintf(&b, "  discovery: broadcasts=%d (%.2f per 1k LLC accesses) found=%d stale=%d\n",
			r.DiscoveryBroadcasts, r.DiscoveryPer1kLLCAccesses(), r.DiscoveryFound, r.DiscoveryStale)
	}
	fmt.Fprintf(&b, "  network: flit-hops=%d  memory: reads=%d writes=%d\n", r.TotalFlitHops, r.MemReads, r.MemWrites)
	fmt.Fprintf(&b, "  energy: %s\n", r.Energy)
	if r.Sampled {
		fmt.Fprintf(&b, "  occupancy=%.3f private-fraction=%.3f\n", r.AvgDirOccupancy, r.AvgPrivateFraction)
	}
	return b.String()
}

func safeDiv(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
