package experiments

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/system"
)

// ScalingCores is the core-count axis of the 16-to-256-core scaling study.
// 128 and 256 are past the paper's evaluated range; they are where
// directory pressure (and the stash design's advantage or breakdown)
// should be most visible.
var ScalingCores = []int{16, 32, 64, 128, 256}

// ScalingCoverages is the (reduced) coverage axis the scaling study sweeps
// at every core count; the full Coverages axis at 256 cores would be
// disproportionately slow for what the study reports.
var ScalingCoverages = []float64{1, 0.25, 0.125}

// ScalingStudy sweeps sparse and stash over (cores x coverage): for each
// point it reports execution time normalized to the same-core-count
// sparse@1x baseline — the Fig 9 metric extended to 128 and 256 cores.
// Its series are kind and coverage pairs, named "stash 1/8" and so on.
func (h *Harness) ScalingStudy() (*Grid, error) {
	blocks := make([][]series, 2)
	for k, kind := range []string{system.DirSparse, system.DirStash} {
		for _, cov := range ScalingCoverages {
			s := dir(kind, cov)
			s.labels = append(s.labels, covLabel(cov))
			blocks[k] = append(blocks[k], s)
		}
	}
	return h.grid(grid{
		title:   "Scaling study: execution time normalized to same-core-count sparse@1x, 16-256 cores",
		heads:   []string{"directory", "coverage"},
		blocks:  blocks,
		columns: coreColumns(ScalingCores),
		metric:  normTime,
	})
}

// ScalingRecalls reports the per-core-count recall-invalidation pressure
// at the tightest scaling coverage: recalls per 1k accesses for sparse vs
// stash, the directory-pressure symptom that grows with scale. It reuses
// the ScalingStudy runs (memoized), so calling both costs one sweep.
func (h *Harness) ScalingRecalls() (*stats.Table, error) {
	cov := ScalingCoverages[len(ScalingCoverages)-1]
	g, err := h.grid(grid{
		title:   fmt.Sprintf("Scaling study: recall invalidations per 1k accesses at %s coverage", covLabel(cov)),
		blocks:  apart(cov),
		columns: coreColumns(ScalingCores),
		metric: func(r, _ *system.Results) float64 {
			if accesses := r.Loads + r.Stores; accesses > 0 {
				return 1000 * float64(r.InvsRecall) / float64(accesses)
			}
			return 0
		},
		absolute: true,
	})
	if err != nil {
		return nil, err
	}
	return g.Table, nil
}
