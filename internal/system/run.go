package system

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/trace"
)

func simCycle(v uint64) sim.Cycle { return sim.Cycle(v) }

// log2 of a power of two (or the floor for other values).
func log2(n int) uint {
	var s uint
	for 1<<(s+1) <= n {
		s++
	}
	return s
}

// Salts decorrelate the random-replacement streams of the different
// structure kinds built from one run seed.
const (
	seedSaltDir int64 = 1 + iota
	seedSaltL1
	seedSaltL2
	seedSaltLLC
)

// policySeed derives the seed for one structure's random replacement policy
// from the run seed. Every structure kind draws from a distinct stream
// (salt) and every instance gets a distinct offset, so no two tag arrays
// share a victim sequence — yet the whole machine remains a pure function
// of cfg.Seed. (Previously the directory seed was a bank-only constant and
// the cache configs left Seed at zero, so cfg.Seed never reached the
// random policy at all.)
func policySeed(runSeed, salt int64, index int) int64 {
	return runSeed*0x9E3779B9 + salt*0x1F123BB5 + int64(index)*7919 + 100
}

// buildDirectory constructs one bank's directory slice.
func buildDirectory(c *Config, bank int) (core.Directory, error) {
	perBank := c.DirEntriesPerBank()
	shift := log2(c.Cores)
	assoc := core.AssocConfig{
		Sets:       perBank / c.DirWays,
		Ways:       c.DirWays,
		IndexShift: shift,
		Policy:     c.ReplacementPolicy,
		Seed:       policySeed(c.Seed, seedSaltDir, bank),
	}
	switch c.DirKind {
	case DirFullMap:
		return core.NewFullMap(), nil
	case DirSparse:
		return core.NewSparse(assoc)
	case DirStash:
		return core.NewStash(core.StashConfig{AssocConfig: assoc})
	case DirStashSS:
		return core.NewStash(core.StashConfig{AssocConfig: assoc, StashSingletonShared: true})
	case DirCuckoo:
		// The cuckoo seed picks the hash functions — a structural property
		// of the directory, like its geometry — so it stays a bank-only
		// constant: varying the run seed changes victim choices, not which
		// blocks collide, keeping capacity behavior comparable across seeds.
		return core.NewCuckoo(core.CuckooConfig{
			Ways:        c.DirWays,
			SlotsPerWay: perBank / c.DirWays,
			Seed:        int64(bank) + 100,
		})
	}
	return nil, fmt.Errorf("system: unknown directory kind %q", c.DirKind)
}

// buildConfig translates a validated Config into the coherence layer's
// build description. The closure captures cfg by value, so the returned
// BuildConfig is self-contained.
func buildConfig(cfg Config) coherence.BuildConfig {
	shape := meshShapes[cfg.Cores]
	var l2 *cache.Config
	if cfg.HasL2() {
		l2 = &cache.Config{
			Name: "l2", Sets: cfg.L2Sets, Ways: cfg.L2Ways, Policy: cfg.ReplacementPolicy,
			Seed: policySeed(cfg.Seed, seedSaltL2, 0),
		}
	}
	return coherence.BuildConfig{
		Params: cfg.params(),
		Mesh:   noc.DefaultConfig(shape[0], shape[1]),
		L1: cache.Config{
			Name: "l1", Sets: cfg.L1Sets, Ways: cfg.L1Ways, Policy: cfg.ReplacementPolicy,
			Seed: policySeed(cfg.Seed, seedSaltL1, 0),
		},
		L2: l2,
		LLC: cache.Config{
			Name: "llc", Sets: cfg.LLCSetsPerBank, Ways: cfg.LLCWays,
			IndexShift: log2(cfg.Cores), Policy: cfg.ReplacementPolicy,
			Seed: policySeed(cfg.Seed, seedSaltLLC, 0),
		},
		NewDirectory: func(bank int) (core.Directory, error) {
			return buildDirectory(&cfg, bank)
		},
	}
}

// Build assembles the fabric and processors for cfg without running them.
// Most callers want Run; Build exists for examples and tools that attach
// observers before driving the machine themselves.
func Build(cfg Config) (*coherence.Fabric, []*coherence.Processor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	fab, err := coherence.NewFabric(buildConfig(cfg))
	if err != nil {
		return nil, nil, err
	}
	fab.Checker.SetEnabled(cfg.Checker)

	sources, err := buildSources(&cfg)
	if err != nil {
		return nil, nil, err
	}
	procs, err := fab.AttachProcessors(sources)
	if err != nil {
		return nil, nil, err
	}
	return fab, procs, nil
}

// buildSources resolves the per-core access streams: synthetic generator
// streams, or replayed trace files. Every trace file is first opened as a
// binary trace: one that is replays zero-copy through an mmap-backed
// trace.BinarySource (closed by finishSources after the run); one without
// the magic (trace.ErrNotBinary) is text, parsed up front into a slice, so
// its format errors still surface at build time.
func buildSources(cfg *Config) ([]coherence.AccessSource, error) {
	sources := make([]coherence.AccessSource, cfg.Cores)
	if len(cfg.TraceFiles) != 0 {
		for i, path := range cfg.TraceFiles {
			src, err := trace.OpenBinary(path)
			if err == nil {
				sources[i] = src
				continue
			}
			if !errors.Is(err, trace.ErrNotBinary) {
				closeSources(sources)
				return nil, fmt.Errorf("system: trace file: %w", err)
			}
			f, err := os.Open(path)
			if err != nil {
				closeSources(sources)
				return nil, fmt.Errorf("system: trace file: %w", err)
			}
			accs, err := trace.ParseAccesses(f)
			f.Close()
			if err != nil {
				closeSources(sources)
				return nil, fmt.Errorf("system: %s: %w", path, err)
			}
			sources[i] = &coherence.SliceSource{Accesses: accs}
		}
		return sources, nil
	}
	mix, err := cfg.mix()
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Cores; i++ {
		s, err := trace.NewStream(mix, i, cfg.Cores, cfg.AccessesPerCore, cfg.Seed)
		if err != nil {
			return nil, err
		}
		sources[i] = s
	}
	return sources, nil
}

// closeSources releases any file-backed sources in a partially built
// slice; build error paths use it so mmaps are not leaked.
func closeSources(sources []coherence.AccessSource) {
	for _, s := range sources {
		if c, ok := s.(io.Closer); ok && c != nil {
			c.Close()
		}
	}
}

// finishSources closes file-backed sources after a run and surfaces any
// read error a streaming source deferred until replay (a binary trace that
// went bad mid-stream ends the stream early rather than panicking; the
// error lands here).
func finishSources(procs []*coherence.Processor) error {
	var first error
	for _, p := range procs {
		src := p.Source()
		if e, ok := src.(interface{ Err() error }); ok && first == nil {
			first = e.Err()
		}
		if c, ok := src.(io.Closer); ok {
			if err := c.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

// Run is RunContext with a context that is never cancelled.
func Run(cfg Config) (*Results, error) { return RunContext(context.Background(), cfg) }

// RunContext builds the machine for cfg, drives it to completion and
// returns the collected results. It fails on configuration errors,
// deadlock, oracle violations or audit failures. Cancelling ctx stops the
// engine after its current event (at the next epoch barrier on the
// parallel engine) and RunContext returns ctx.Err() and no Results, so
// every Results it does return is a pure function of cfg. Shards > 0
// routes through the parallel engine (see runParallel).
func RunContext(ctx context.Context, cfg Config) (*Results, error) {
	if cfg.Shards > 0 {
		return runParallel(ctx, cfg)
	}
	fab, procs, err := Build(cfg)
	if err != nil {
		return nil, err
	}

	sampler := &occupancySampler{}
	if cfg.SamplePeriod > 0 {
		sampler.arm(fab, procs, sim.Cycle(cfg.SamplePeriod))
	}

	defer context.AfterFunc(ctx, fab.Engine.Stop)()
	driveErr := fab.Drive(procs, 0)
	if srcErr := finishSources(procs); driveErr == nil && srcErr != nil {
		driveErr = srcErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if driveErr != nil {
		return nil, fmt.Errorf("system: %s/%s cov=%.3g: %w", cfg.DirKind, cfg.WorkloadName(), cfg.Coverage, driveErr)
	}
	return collect(cfg, fab, procs, sampler, fab.Engine.Now(), fab.Engine.EventsRun()), nil
}

// occupancySampler periodically walks the directory slices recording how
// full they are and what fraction of live entries track private blocks.
type occupancySampler struct {
	samples      int
	occupancySum float64
	privateSum   float64
}

func (s *occupancySampler) arm(fab *coherence.Fabric, procs []*coherence.Processor, period sim.Cycle) {
	var tick func()
	tick = func() {
		done := true
		for _, p := range procs {
			if !p.Finished() {
				done = false
				break
			}
		}
		if done {
			return // stop sampling; lets the event queue drain
		}
		s.sample(fab)
		fab.Engine.After(period, "system.sample", tick)
	}
	fab.Engine.After(period, "system.sample", tick)
}

func (s *occupancySampler) sample(fab *coherence.Fabric) {
	occupied, capacity, private := 0, 0, 0
	for _, bank := range fab.Banks {
		d := bank.Directory()
		occ := d.OccupiedEntries()
		occupied += occ
		capacity += d.Capacity()
		d.ForEach(func(e *core.Entry) {
			if e.Private() {
				private++
			}
		})
	}
	s.samples++
	if capacity > 0 {
		s.occupancySum += float64(occupied) / float64(capacity)
	}
	if occupied > 0 {
		s.privateSum += float64(private) / float64(occupied)
	}
}

func (s *occupancySampler) averages() (occupancy, private float64, ok bool) {
	if s.samples == 0 {
		return 0, 0, false
	}
	return s.occupancySum / float64(s.samples), s.privateSum / float64(s.samples), true
}
