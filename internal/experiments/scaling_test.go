package experiments

import (
	"testing"

	"repro/internal/system"
	"repro/internal/testutil/leakcheck"
)

// scalingHarness shrinks runs hard: the study grid spans five core counts
// up to 256, so each point must be tiny for the test to stay fast.
func scalingHarness(t *testing.T) *Harness {
	leakcheck.Check(t)
	h := NewHarness(Options{
		Quick:     true,
		Workloads: []string{"canneal"},
		ConfigHook: func(c *system.Config) {
			c.AccessesPerCore = 600
			c.WorkloadScale = 0.25
		},
	})
	t.Cleanup(h.Close)
	return h
}

func TestScalingStudyShape(t *testing.T) {
	if testing.Short() {
		t.Skip("256-core grid")
	}
	h := scalingHarness(t)
	g, err := h.ScalingStudy()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Table.Rows) == 0 {
		t.Fatal("empty scaling table")
	}
	for _, kind := range []string{system.DirSparse, system.DirStash} {
		for _, cov := range ScalingCoverages {
			s := kind + " " + covLabel(cov)
			for _, n := range g.Columns {
				if v := g.Geomean(s, n); v <= 0 {
					t.Errorf("%s %s: normalized time %v, want > 0", s, n, v)
				}
				// The sparse@1x baseline normalizes to exactly 1.
				if s == system.DirSparse+" 1x" {
					if v := g.Geomean(s, n); v != 1 {
						t.Errorf("sparse %s at 1x normalizes to %v, want 1", n, v)
					}
				}
			}
		}
	}

	// The stash-vs-sparse margin at tight coverage is the study's
	// headline number, but at this smoke-test scale (600 accesses/core,
	// quarter-size working sets) it is noise — EXPERIMENTS.md records the
	// real-size outcome. Log it so failures elsewhere come with context.
	tight := covLabel(ScalingCoverages[len(ScalingCoverages)-1])
	big := g.Columns[len(g.Columns)-1]
	t.Logf("%s cov=%s: stash %.3f vs sparse %.3f", big, tight,
		g.Geomean(system.DirStash+" "+tight, big), g.Geomean(system.DirSparse+" "+tight, big))

	rt, err := h.ScalingRecalls()
	if err != nil {
		t.Fatal(err)
	}
	if len(rt.Rows) == 0 {
		t.Fatal("empty recall table")
	}
}
