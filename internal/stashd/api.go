package stashd

import (
	"fmt"

	"repro/internal/experiments"
	"repro/internal/system"
	"repro/internal/workloads"
)

// RunRequest selects and overrides one simulation configuration. Zero
// fields keep the defaults of system.DefaultConfig (or QuickConfig when
// Quick is set), so the minimal request is {"workload":"canneal"}.
type RunRequest struct {
	Workload string  `json:"workload"`
	DirKind  string  `json:"dir,omitempty"`
	Coverage float64 `json:"coverage,omitempty"`
	Cores    int     `json:"cores,omitempty"`
	DirWays  int     `json:"dirWays,omitempty"`

	AccessesPerCore int     `json:"accessesPerCore,omitempty"`
	WorkloadScale   float64 `json:"workloadScale,omitempty"`
	Seed            int64   `json:"seed,omitempty"`

	// Quick scales the machine down (system.QuickConfig) — the right
	// default for interactive exploration.
	Quick bool `json:"quick,omitempty"`

	SilentCleanEvictions bool   `json:"silentCleanEvictions,omitempty"`
	ThreeHopForwarding   bool   `json:"threeHopForwarding,omitempty"`
	MSHRs                int    `json:"mshrs,omitempty"`
	PointerLimit         int    `json:"pointerLimit,omitempty"`
	L2Sets               int    `json:"l2Sets,omitempty"`
	L2Ways               int    `json:"l2Ways,omitempty"`
	SamplePeriod         uint64 `json:"samplePeriod,omitempty"`
	// Checker defaults to on; send false to trade auditing for speed.
	Checker *bool `json:"checker,omitempty"`
	// Shards > 0 runs the parallel engine with that many workers and
	// defaults the checker off (parallel runs cannot host the globally
	// ordered value oracle); an explicit "checker": true is refused. 0
	// keeps the serial engine.
	Shards int `json:"shards,omitempty"`
}

// Config resolves the request into a validated simulation config.
func (q *RunRequest) Config() (system.Config, error) {
	if q.Workload == "" {
		return system.Config{}, fmt.Errorf("stashd: workload is required")
	}
	// Resolve the workload name now so a typo is a 400 at the API edge,
	// not a simulation failure (a 500) after the job is queued.
	if _, err := workloads.Get(q.Workload); err != nil {
		return system.Config{}, err
	}
	cfg := system.DefaultConfig(q.Workload)
	if q.Quick {
		cfg = system.QuickConfig(q.Workload)
	}
	if q.DirKind != "" {
		cfg.DirKind = q.DirKind
	}
	if q.Coverage != 0 {
		cfg.Coverage = q.Coverage
	}
	if q.Cores != 0 {
		cfg.Cores = q.Cores
	}
	if q.DirWays != 0 {
		cfg.DirWays = q.DirWays
	}
	if q.AccessesPerCore != 0 {
		cfg.AccessesPerCore = q.AccessesPerCore
	}
	if q.WorkloadScale != 0 {
		cfg.WorkloadScale = q.WorkloadScale
	}
	if q.Seed != 0 {
		cfg.Seed = q.Seed
	}
	cfg.SilentCleanEvictions = q.SilentCleanEvictions
	cfg.ThreeHopForwarding = q.ThreeHopForwarding
	if q.MSHRs != 0 {
		cfg.MSHRs = q.MSHRs
	}
	if q.PointerLimit != 0 {
		cfg.PointerLimit = q.PointerLimit
	}
	if q.L2Sets != 0 {
		cfg.L2Sets = q.L2Sets
	}
	if q.L2Ways != 0 {
		cfg.L2Ways = q.L2Ways
	}
	if q.SamplePeriod != 0 {
		cfg.SamplePeriod = q.SamplePeriod
	}
	if q.Checker != nil {
		cfg.Checker = *q.Checker
	}
	if q.Shards > 0 {
		cfg.Shards = q.Shards
		// Only the default yields to the parallel engine: an explicit
		// checker request stays as asked and fails Validate.
		if q.Checker == nil {
			cfg.Checker = false
		}
	}
	return cfg, cfg.Validate()
}

// InternalRunRequest is the POST /internal/run body: one fully resolved
// configuration, dispatched by the fleet coordinator. Workers key their
// caches on exactly this config, so the coordinator's consistent-hash key
// and the worker's cache key always agree.
type InternalRunRequest struct {
	Config system.Config `json:"config"`
}

// RunResponse is the POST /run reply.
type RunResponse struct {
	JobID      string          `json:"jobId"`
	CacheHit   string          `json:"cacheHit,omitempty"`
	DurationMS float64         `json:"durationMs"`
	Result     *system.Results `json:"result"`
}

// SweepRequest expands into the cross product workloads x dirKinds x
// coverages over a shared base request. Empty axes take the paper's
// defaults: every built-in workload, sparse+stash, the six-point coverage
// axis of the evaluation.
type SweepRequest struct {
	Base      RunRequest `json:"base"`
	Workloads []string   `json:"workloads,omitempty"`
	DirKinds  []string   `json:"dirKinds,omitempty"`
	Coverages []float64  `json:"coverages,omitempty"`
}

// maxSweepConfigs bounds one request's expansion so a typo cannot enqueue
// an unbounded batch.
const maxSweepConfigs = 4096

// Configs expands the sweep. The expansion order is workload-major then
// directory kind then coverage, matching the harness's sweep order.
func (s *SweepRequest) Configs() ([]system.Config, error) {
	ws := s.Workloads
	if len(ws) == 0 {
		if s.Base.Workload != "" {
			ws = []string{s.Base.Workload}
		} else {
			ws = workloads.Names()
		}
	}
	kinds := s.DirKinds
	if len(kinds) == 0 {
		kinds = []string{system.DirSparse, system.DirStash}
	}
	covs := s.Coverages
	if len(covs) == 0 {
		covs = experiments.Coverages
	}
	n := len(ws) * len(kinds) * len(covs)
	if n == 0 {
		return nil, fmt.Errorf("stashd: empty sweep")
	}
	if n > maxSweepConfigs {
		return nil, fmt.Errorf("stashd: sweep expands to %d configs (limit %d)", n, maxSweepConfigs)
	}
	cfgs := make([]system.Config, 0, n)
	for _, w := range ws {
		for _, kind := range kinds {
			for _, cov := range covs {
				req := s.Base
				req.Workload = w
				req.DirKind = kind
				req.Coverage = cov
				cfg, err := req.Config()
				if err != nil {
					return nil, err
				}
				cfgs = append(cfgs, cfg)
			}
		}
	}
	return cfgs, nil
}

// SweepLine is one chunked-JSON progress line of POST /sweep: a "job" line
// per completed simulation (in completion order) and a final "done"
// summary line.
type SweepLine struct {
	Type string `json:"type"` // "job" or "done"

	// Per-job fields.
	JobID             string  `json:"jobId,omitempty"`
	Workload          string  `json:"workload,omitempty"`
	DirKind           string  `json:"dirKind,omitempty"`
	Coverage          float64 `json:"coverage,omitempty"`
	CacheHit          string  `json:"cacheHit,omitempty"`
	Cycles            uint64  `json:"cycles,omitempty"`
	AccessesPerKCycle float64 `json:"accessesPerKCycle,omitempty"`
	DurationMS        float64 `json:"durationMs,omitempty"`
	Error             string  `json:"error,omitempty"`

	// Done-line summary fields.
	Jobs      int     `json:"jobs,omitempty"`
	CacheHits int     `json:"cacheHits,omitempty"`
	Failures  int     `json:"failures,omitempty"`
	ElapsedMS float64 `json:"elapsedMs,omitempty"`
}
