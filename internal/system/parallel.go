package system

import (
	"context"
	"fmt"

	"repro/internal/coherence"
	"repro/internal/sim"
)

// BuildParallel assembles the sharded fabric and processors for cfg
// (cfg.Shards must be > 0) without running them. Run is the usual entry
// point; BuildParallel exists for tools that set an epoch hook before
// driving the machine themselves.
func BuildParallel(cfg Config) (*coherence.ParallelFabric, []*coherence.Processor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.Shards < 1 {
		return nil, nil, fmt.Errorf("system: BuildParallel needs Shards >= 1, got %d", cfg.Shards)
	}
	pf, err := coherence.NewParallelFabric(buildConfig(cfg), cfg.Shards)
	if err != nil {
		return nil, nil, err
	}
	sources, err := buildSources(&cfg)
	if err != nil {
		return nil, nil, err
	}
	procs, err := pf.AttachProcessors(sources)
	if err != nil {
		return nil, nil, err
	}
	return pf, procs, nil
}

// runParallel is RunContext's Shards > 0 path: same machine, driven by
// the parallel engine, with the per-tile statistics folded back into the
// root fabric before collection.
func runParallel(ctx context.Context, cfg Config) (*Results, error) {
	pf, procs, err := BuildParallel(cfg)
	if err != nil {
		return nil, err
	}

	sampler := &occupancySampler{}
	if cfg.SamplePeriod > 0 {
		pf.EpochHook = epochSampler(sampler, pf.Root, procs, sim.Cycle(cfg.SamplePeriod))
	}

	defer context.AfterFunc(ctx, pf.Stop)()
	driveErr := pf.Drive(procs, 0)
	if srcErr := finishSources(procs); driveErr == nil && srcErr != nil {
		driveErr = srcErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if driveErr != nil {
		return nil, fmt.Errorf("system: %s/%s cov=%.3g shards=%d: %w",
			cfg.DirKind, cfg.WorkloadName(), cfg.Coverage, cfg.Shards, driveErr)
	}
	return collect(cfg, pf.Root, procs, sampler, pf.Cycles(), pf.EventsRun()), nil
}

// epochSampler adapts the occupancy sampler to the parallel engine's epoch
// grid: the serial path samples at exact multiples of the period via
// events; here we sample at the first epoch boundary at or past each
// multiple. The hook runs on the driver thread while the workers are
// parked at the barrier, so walking the directories is race-free; the
// epoch grid is shard-count-invariant, so so are the samples. Sampling
// stops — matching the serial sampler — once every processor finished.
func epochSampler(s *occupancySampler, fab *coherence.Fabric, procs []*coherence.Processor, period sim.Cycle) func(start, end sim.Cycle) {
	next := period
	return func(start, end sim.Cycle) {
		for next < end {
			done := true
			for _, p := range procs {
				if !p.Finished() {
					done = false
					break
				}
			}
			if done {
				return
			}
			s.sample(fab)
			next += period
		}
	}
}
