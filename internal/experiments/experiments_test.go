package experiments

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/runner"
	"repro/internal/system"
	"repro/internal/testutil/leakcheck"
)

// tinyHarness shrinks runs so the whole experiment suite stays fast in
// tests while preserving the capacity ratios.
func tinyHarness(t *testing.T, workloads ...string) *Harness {
	return tinyHarnessParallel(t, 0, workloads...)
}

// tinyHarnessParallel is tinyHarness with an explicit worker count, which
// must be fixed at construction time now that the harness owns a pool. The
// harness closes when the test ends, and the test fails if that leaves any
// of its goroutines running.
func tinyHarnessParallel(t *testing.T, parallel int, workloads ...string) *Harness {
	leakcheck.Check(t)
	h := NewHarness(Options{
		Quick:     true,
		Workloads: workloads,
		Parallel:  parallel,
		ConfigHook: func(c *system.Config) {
			c.AccessesPerCore = 4000
			c.WorkloadScale = 0.25
		},
	})
	t.Cleanup(h.Close)
	return h
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); g != 4 {
		t.Fatalf("geomean(2,8) = %v, want 4", g)
	}
	if g := geomean(nil); g != 0 {
		t.Fatalf("geomean(nil) = %v, want 0", g)
	}
	if g := geomean([]float64{1, 0}); g != 0 {
		t.Fatalf("geomean with zero = %v, want 0", g)
	}
}

func TestCovLabel(t *testing.T) {
	cases := map[float64]string{2: "2x", 1: "1x", 0.5: "1/2", 0.125: "1/8", 0.0625: "1/16"}
	for c, want := range cases {
		if got := covLabel(c); got != want {
			t.Errorf("covLabel(%v) = %q, want %q", c, got, want)
		}
	}
}

func TestHarnessMemoizes(t *testing.T) {
	runs := 0
	h := tinyHarness(t, "blackscholes")
	h.opts.Progress = func(string) { runs++ }
	for i := 0; i < 2; i++ {
		if _, err := h.perWorkload(sparseAt1x); err != nil {
			t.Fatal(err)
		}
	}
	if runs != 1 {
		t.Fatalf("baseline ran %d times, want 1 (memoized)", runs)
	}
}

func TestTable1RendersWithoutRunning(t *testing.T) {
	h := tinyHarness(t, "blackscholes")
	tb := h.Table1Config()
	out := tb.String()
	for _, want := range []string{"cores", "L1", "directory", "mesh"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig1PrivateFractionHigh(t *testing.T) {
	h := tinyHarness(t, "blackscholes", "streamcluster")
	_, vals, err := h.Fig1PrivateFraction()
	if err != nil {
		t.Fatal(err)
	}
	for w, v := range vals {
		if v < 0.5 || v > 1 {
			t.Errorf("%s: private fraction %v outside (0.5, 1]", w, v)
		}
	}
	if vals["blackscholes"] <= vals["streamcluster"] {
		t.Errorf("blackscholes (%v) should be more private than streamcluster (%v)",
			vals["blackscholes"], vals["streamcluster"])
	}
}

func TestFig2InvalidationsGrowAsCoverageShrinks(t *testing.T) {
	h := tinyHarness(t, "canneal")
	res, err := h.Fig2Invalidations()
	if err != nil {
		t.Fatal(err)
	}
	// Invalidations must be much larger at 1/16 than at 1x.
	if !(res.Geomean(system.DirSparse, "1/16") > res.Geomean(system.DirSparse, "1x")*2) {
		t.Errorf("conflict invalidations did not explode: %v", res.Geomeans[system.DirSparse])
	}
}

func TestFig3HeadlineShape(t *testing.T) {
	h := tinyHarness(t, "canneal", "barnes")
	res, err := h.Fig3ExecTime()
	if err != nil {
		t.Fatal(err)
	}
	sparse8, stash8 := res.Geomean(system.DirSparse, "1/8"), res.Geomean(system.DirStash, "1/8")
	// The abstract's claim at bench scale: stash at 1/8 coverage within a
	// few percent of sparse at 1x (normalized 1.0).
	if stash8 > 1.10 {
		t.Errorf("stash at 1/8 coverage is %.3f x sparse@1x, want <= 1.10", stash8)
	}
	// Sparse must visibly degrade at 1/8.
	if sparse8 < stash8*1.05 {
		t.Errorf("sparse@1/8 (%.3f) not clearly worse than stash@1/8 (%.3f)", sparse8, stash8)
	}
	if sparse1 := res.Geomean(system.DirSparse, "1x"); sparse1 < 0.95 || sparse1 > 1.05 {
		t.Errorf("sparse@1x should normalize to ~1.0, got %.3f", sparse1)
	}
}

func TestFig6DiscoveryGrowsButStaysRare(t *testing.T) {
	h := tinyHarness(t, "barnes")
	_, means, err := h.Fig6Discovery()
	if err != nil {
		t.Fatal(err)
	}
	if !(means[0.0625] > means[1]) {
		t.Errorf("discoveries should grow as coverage shrinks: %v", means)
	}
	if means[0.125] > 300 {
		t.Errorf("discoveries per 1k LLC accesses implausibly high: %v", means[0.125])
	}
}

func TestFig7EnergyShrinksWithDirectory(t *testing.T) {
	h := tinyHarness(t, "blackscholes")
	res, err := h.Fig7Energy()
	if err != nil {
		t.Fatal(err)
	}
	if !(res.Geomean(system.DirStash, "1/8") < res.Geomean(system.DirStash, "2x")) {
		t.Errorf("a 1/8 directory should use less directory energy than a 2x one: %v", res.Geomeans[system.DirStash])
	}
}

func TestFig5TrafficBreakdownSumsToOne(t *testing.T) {
	h := tinyHarness(t, "barnes")
	tb, err := h.Fig5TrafficBreakdown(0.125)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 { // one workload x two orgs
		t.Fatalf("rows = %d, want 2", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		sum := 0.0
		for _, cell := range row[2:] {
			var v float64
			if _, err := fmtSscan(cell, &v); err != nil {
				t.Fatalf("bad cell %q", cell)
			}
			sum += v
		}
		if sum < 0.98 || sum > 1.02 {
			t.Errorf("breakdown sums to %v, want ~1", sum)
		}
	}
}

func TestTable3AndAblationRender(t *testing.T) {
	h := tinyHarness(t, "barnes")
	tb, err := h.Table3Occupancy()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("Table 3 rows = %d", len(tb.Rows))
	}
	ab, err := h.Fig11Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if len(ab.Rows) != 1 || len(ab.Rows[0]) != 5 {
		t.Fatalf("ablation shape wrong: %v", ab.Rows)
	}
}

func TestTable2Renders(t *testing.T) {
	h := tinyHarness(t, "blackscholes")
	tb, err := h.Table2Workloads()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 1 {
		t.Fatalf("Table 2 rows = %d", len(tb.Rows))
	}
}

// fmtSscan parses one float out of a table cell.
func fmtSscan(s string, v *float64) (int, error) {
	return fmt.Sscanf(s, "%f", v)
}

func TestFig12ProtocolVariantsShape(t *testing.T) {
	h := tinyHarness(t, "canneal")
	g, err := h.Fig12ProtocolVariants()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Table.Rows) != 4 { // (1 workload + GEOMEAN) x 2 orgs
		t.Fatalf("rows = %d, want 4", len(g.Table.Rows))
	}
	// The headline must hold under every variant: stash@1/8 close to 1.0,
	// sparse@1/8 clearly above it.
	for _, variant := range g.Columns {
		v := g.Geomean(system.DirStash, variant)
		if v > 1.15 {
			t.Errorf("stash@1/8 under %s = %.3f, want <= 1.15", variant, v)
		}
		if sp := g.Geomean(system.DirSparse, variant); sp < v {
			t.Errorf("sparse@1/8 under %s (%.3f) not worse than stash (%.3f)", variant, sp, v)
		}
	}
}

func TestFig13EntryFormatShape(t *testing.T) {
	h := tinyHarness(t, "streamcluster") // enough sharing to overflow pointers
	tb, gm, err := h.Fig13EntryFormat()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 8 { // 1 workload x 4 formats + 4 geomeans
		t.Fatalf("rows = %d, want 8", len(tb.Rows))
	}
	// Narrow formats trade broadcasts for width; time may rise slightly but
	// must stay sane, and every format must preserve correctness (Run
	// already enforces that).
	for f, v := range gm {
		if v <= 0 || v > 2 {
			t.Errorf("format %s: implausible normalized time %v", f, v)
		}
	}
	if gm["ptr1-B"] < gm["fullmap-entry"]*0.9 {
		t.Errorf("ptr1-B (%v) implausibly faster than full-map (%v)", gm["ptr1-B"], gm["fullmap-entry"])
	}
}

func TestFig14PrivateL2Shape(t *testing.T) {
	h := tinyHarness(t, "canneal")
	g, err := h.Fig14PrivateL2()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Table.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(g.Table.Rows))
	}
	// With private L2s, stash at 1/8 must still beat sparse at 1/8.
	if stash, sparse := g.Geomean(system.DirStash, "1/8"), g.Geomean(system.DirSparse, "1/8"); stash >= sparse {
		t.Errorf("stash (%v) not better than sparse (%v) at 1/8 with L2s", stash, sparse)
	}
}

func TestParallelSweepMatchesSequential(t *testing.T) {
	seq := tinyHarness(t, "canneal", "barnes")
	par := tinyHarnessParallel(t, 4, "canneal", "barnes")
	a, err := seq.Fig3ExecTime()
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.Fig3ExecTime()
	if err != nil {
		t.Fatal(err)
	}
	for kind, gm := range a.Geomeans {
		for i, v := range gm {
			if b.Geomeans[kind][i] != v {
				t.Fatalf("parallel diverged: %s[%d] %v vs %v", kind, i, v, b.Geomeans[kind][i])
			}
		}
	}
}

// TestSweepSummariesDeterministicAcrossParallelism asserts full-fidelity
// determinism: the complete Results.Summary() of every run in a sweep is
// byte-identical whether the sweep executed sequentially or on 8 workers.
func TestSweepSummariesDeterministicAcrossParallelism(t *testing.T) {
	summaries := func(parallel int) []string {
		h := tinyHarnessParallel(t, parallel, "canneal", "barnes")
		var sets []func(*system.Config)
		for _, cov := range []float64{1, 0.25} {
			for _, kind := range []string{system.DirSparse, system.DirStash} {
				sets = append(sets, dir(kind, cov).set)
			}
		}
		res, err := h.perWorkload(sets...)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, rs := range res {
			for _, r := range rs {
				out = append(out, r.Summary())
			}
		}
		return out
	}
	seq := summaries(1)
	par := summaries(8)
	if len(seq) != len(par) {
		t.Fatalf("summary counts differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("run %d diverged between Parallel=1 and Parallel=8:\n--- sequential:\n%s--- parallel:\n%s", i, seq[i], par[i])
		}
	}
}

func TestFig15PolicyShape(t *testing.T) {
	h := tinyHarness(t, "canneal")
	g, err := h.Fig15ReplacementPolicy()
	if err != nil {
		t.Fatal(err)
	}
	// Stash must be insensitive to the policy: spread across policies small.
	min, max := 1e9, 0.0
	for _, v := range g.Geomeans[system.DirStash] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	if max/min > 1.15 {
		t.Errorf("stash policy sensitivity too high: [%v, %v]", min, max)
	}
}

func TestFig8AssociativityShape(t *testing.T) {
	// blackscholes is conflict-bound (small hot set, large directory
	// pressure), so associativity visibly helps its sparse directory;
	// canneal would not work here — it is capacity-bound and nearly
	// associativity-insensitive (see the full-scale Fig 8 data).
	h := tinyHarness(t, "blackscholes")
	g, err := h.Fig8Associativity()
	if err != nil {
		t.Fatal(err)
	}
	// Sparse must benefit from associativity far more than stash.
	sparseGain := g.Geomean(system.DirSparse, "2-way") - g.Geomean(system.DirSparse, "16-way")
	stashGain := g.Geomean(system.DirStash, "2-way") - g.Geomean(system.DirStash, "16-way")
	if sparseGain <= stashGain {
		t.Errorf("sparse assoc gain (%v) not larger than stash (%v)", sparseGain, stashGain)
	}
}

func TestFig9ScalingShape(t *testing.T) {
	h := tinyHarness(t, "canneal")
	g, err := h.Fig9Scaling()
	if err != nil {
		t.Fatal(err)
	}
	for _, cores := range g.Columns {
		if stash, sparse := g.Geomean(system.DirStash, cores), g.Geomean(system.DirSparse, cores); stash >= sparse {
			t.Errorf("%s: stash (%v) not better than sparse (%v)", cores, stash, sparse)
		}
	}
}

func TestFig10CuckooBetweenSparseAndStash(t *testing.T) {
	h := tinyHarness(t, "canneal")
	r, err := h.Fig10Cuckoo()
	if err != nil {
		t.Fatal(err)
	}
	sparse, cuckoo, stash := r.Geomean(system.DirSparse, "1/4"), r.Geomean(system.DirCuckoo, "1/4"), r.Geomean(system.DirStash, "1/4")
	if !(stash <= cuckoo && cuckoo <= sparse*1.02) {
		t.Errorf("expected stash (%v) <= cuckoo (%v) <= sparse (%v) at 1/4", stash, cuckoo, sparse)
	}
}

// TestFig8RunsInParallel: at Parallel 2 Fig 8 hands its whole grid to the
// runner as one batch, so the runner's events show two of its simulations
// in flight at once.
func TestFig8RunsInParallel(t *testing.T) {
	h := tinyHarnessParallel(t, 2, "blackscholes")
	h.runner.Close()
	var mu sync.Mutex
	running, peak := 0, 0
	h.runner = runner.New(runner.Options{
		Workers:       2,
		MemoryEntries: runner.UnlimitedMemory,
		Events: func(e runner.Event) {
			mu.Lock()
			defer mu.Unlock()
			switch {
			case e.Kind == runner.EventStarted:
				running++
				peak = max(peak, running)
			case e.Kind == runner.EventFinished && e.CacheHit == "", e.Kind == runner.EventFailed:
				running--
			}
		},
	})
	if _, err := h.Fig8Associativity(); err != nil {
		t.Fatal(err)
	}
	if peak < 2 {
		t.Fatalf("at most %d Fig 8 simulation(s) ran at once at Parallel 2, want 2", peak)
	}
}
