// Package experiments regenerates every table and figure of the paper's
// evaluation (as reconstructed in DESIGN.md). Each figure method runs the
// simulations it needs as one batch — memoizing them in the Harness so
// figures that share configurations (execution time, miss rate, traffic,
// energy all come from the same sweep) reuse runs — and renders the same
// rows/series the paper reports. The figures that normalize one metric
// over directory kinds, workloads and a swept parameter are grids (see
// Harness.grid), which write their GEOMEAN rows in one place.
//
// EXPERIMENTS.md records the expected shapes and the measured outcomes.
package experiments

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/runner"
	"repro/internal/stats"
	"repro/internal/system"
	"repro/internal/workloads"
)

// Coverages is the directory-size axis of the paper's sweeps: directory
// entries as a fraction of aggregate L1 capacity.
var Coverages = []float64{2, 1, 0.5, 0.25, 0.125, 0.0625}

// Options scope a harness run.
type Options struct {
	// Quick selects the proportionally scaled-down machine (see
	// system.QuickConfig); Full uses the paper-size model.
	Quick bool
	// Workloads restricts the suite; nil means every built-in workload.
	Workloads []string
	// Progress, when non-nil, receives one line per completed simulation.
	Progress func(msg string)
	// ConfigHook, when non-nil, post-processes every base configuration;
	// tests use it to shrink runs further.
	ConfigHook func(*system.Config)
	// Parallel is how many simulations may run at once. 0 or 1 means
	// sequential; negative means GOMAXPROCS.
	Parallel int
	// CacheDir, when non-empty, persists simulation results to disk (via
	// the shared internal/runner cache) so repeated sweeps across process
	// restarts reuse earlier runs.
	CacheDir string
}

// Harness memoizes simulation runs across experiments by delegating every
// execution to an internal/runner job engine — the same engine cmd/stashd
// serves over HTTP — so batching, deduplication, cancellation and the
// (optional) disk cache behave identically everywhere. Every experiment
// that simulates hands all of its runs to the engine as one batch (see
// perWorkload); the per-figure methods themselves are not meant to be
// called from multiple goroutines.
type Harness struct {
	opts   Options
	runner *runner.Runner
}

// NewHarness returns a harness with an empty run cache.
func NewHarness(opts Options) *Harness {
	workers := opts.Parallel
	if workers >= 0 && workers <= 1 {
		workers = 1 // 0 or 1 means sequential; runner treats <=0 as GOMAXPROCS
	}
	h := &Harness{opts: opts}
	h.runner = runner.New(runner.Options{
		Workers:  workers,
		CacheDir: opts.CacheDir,
		// Sweeps revisit every run when rendering tables; keep them all.
		MemoryEntries: runner.UnlimitedMemory,
		Events:        h.onEvent,
	})
	return h
}

// onEvent adapts runner lifecycle events to the Progress callback: one
// line per actually-simulated run, matching the harness's historic format.
func (h *Harness) onEvent(e runner.Event) {
	progress := h.opts.Progress
	if progress == nil || e.Kind != runner.EventFinished || e.CacheHit != "" {
		return
	}
	cfg := e.Config
	progress(fmt.Sprintf("ran %s/%s cov=%.4g cores=%d: %d cycles",
		cfg.DirKind, cfg.WorkloadName(), cfg.Coverage, cfg.Cores, e.Result.Cycles))
}

// Close drains the harness's worker pool; a harness dropped without it
// leaks its idle workers.
func (h *Harness) Close() { h.runner.Close() }

// workloadList resolves the workload set.
func (h *Harness) workloadList() []string {
	if len(h.opts.Workloads) != 0 {
		return h.opts.Workloads
	}
	return workloads.Names()
}

// baseConfig builds the scoped base configuration for a workload.
func (h *Harness) baseConfig(workload string) system.Config {
	var cfg system.Config
	if h.opts.Quick {
		cfg = system.QuickConfig(workload)
	} else {
		cfg = system.DefaultConfig(workload)
	}
	if h.opts.ConfigHook != nil {
		h.opts.ConfigHook(&cfg)
	}
	return cfg
}

// perWorkload runs every workload's base config under each of sets and
// returns the results indexed [workload][set]. The configs go to the
// shared job engine as one batch, which runs up to Options.Parallel at a
// time; simulations are single-threaded and deterministic, so that changes
// wall-clock time only. The runner deduplicates identical configs and
// cancels still-queued work as soon as one simulation fails.
func (h *Harness) perWorkload(sets ...func(*system.Config)) ([][]*system.Results, error) {
	ws := h.workloadList()
	cfgs := make([]system.Config, 0, len(ws)*len(sets))
	for _, w := range ws {
		for _, set := range sets {
			cfg := h.baseConfig(w)
			set(&cfg)
			cfgs = append(cfgs, cfg)
		}
	}
	res, err := h.runner.RunAll(context.Background(), cfgs)
	if err != nil {
		return nil, err
	}
	out := make([][]*system.Results, len(ws))
	for i := range ws {
		out[i] = res[i*len(sets) : (i+1)*len(sets)]
	}
	return out, nil
}

// sparseAt1x makes a config the normalization baseline: the conventional
// sparse directory at 1x coverage (the "well-provisioned sparse"
// configuration).
func sparseAt1x(c *system.Config) {
	c.DirKind = system.DirSparse
	c.Coverage = 1
}

// chain applies the non-nil changes in order.
func chain(changes ...func(*system.Config)) func(*system.Config) {
	return func(c *system.Config) {
		for _, change := range changes {
			if change != nil {
				change(c)
			}
		}
	}
}

// geomean of a non-empty slice.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}

// covLabel formats a coverage as the paper does (2x, 1x, 1/2, 1/4 ...).
func covLabel(c float64) string {
	if c >= 1 {
		return fmt.Sprintf("%gx", c)
	}
	return fmt.Sprintf("1/%g", 1/c)
}

// A series is one row per workload in a grid: the label cells after the
// workload's name and the change that makes the row's runs.
type series struct {
	labels []string
	set    func(*system.Config)
}

// dir is the series of one directory kind, labelled with its name; a
// non-zero cov fixes the coverage too, which is otherwise the columns'.
func dir(kind string, cov float64) series {
	return series{labels: []string{kind}, set: func(c *system.Config) {
		c.DirKind = kind
		if cov != 0 {
			c.Coverage = cov
		}
	}}
}

// apart puts sparse and stash at coverage cov (see dir) in blocks of their
// own.
func apart(cov float64) [][]series {
	return [][]series{{dir(system.DirSparse, cov)}, {dir(system.DirStash, cov)}}
}

// A column of a grid: its header label, the change it makes to the runs in
// it, and the change those runs share with their baselines.
type column struct {
	label       string
	set, shared func(*system.Config)
}

// coverageColumns sweeps the coverage, one column per entry.
func coverageColumns(covs []float64) []column {
	cols := make([]column, len(covs))
	for i, cov := range covs {
		cols[i] = column{label: covLabel(cov), set: func(c *system.Config) { c.Coverage = cov }}
	}
	return cols
}

// coreColumns sweeps the core count, baselines included.
func coreColumns(cores []int) []column {
	cols := make([]column, len(cores))
	for i, n := range cores {
		cols[i] = column{label: fmt.Sprintf("%d-core", n), shared: func(c *system.Config) { c.Cores = n }}
	}
	return cols
}

// grid describes a table of one metric over series x workloads x columns.
type grid struct {
	title, caption string
	// heads names the label columns between "workload" and the values;
	// nil means one, "directory".
	heads []string
	// blocks groups the series. Each block prints one row per workload and
	// series, workload-major, then one GEOMEAN row per series.
	blocks  [][]series
	columns []column
	// metric is a cell's value from its run and its baseline's: the same
	// workload, sparse at 1x, with the column's shared change.
	metric func(r, base *system.Results) float64
	// absolute grids run no baselines (metric gets nil), print two
	// decimals and write no GEOMEAN rows.
	absolute bool
}

// Grid is what a grid experiment reports: its table, its column labels,
// and each series' geometric mean over workloads.
type Grid struct {
	Table   *stats.Table
	Columns []string
	// Geomeans[s][i] is series s's geometric mean in Columns[i]. A series
	// is named by its label cells joined by spaces: "stash", or "stash 1/8"
	// in the scaling study.
	Geomeans map[string][]float64
}

// Geomean returns series s's geometric mean in the column labelled col. It
// panics when the grid has no such cell, which is a caller's bug.
func (g *Grid) Geomean(s, col string) float64 {
	vs, i := g.Geomeans[s], slices.Index(g.Columns, col)
	if vs == nil || i < 0 {
		panic(fmt.Sprintf("experiments: grid has no geomean for series %q, column %q", s, col))
	}
	return vs[i]
}

// grid runs every cell of g and the baselines in one batch and renders the
// table.
func (h *Harness) grid(g grid) (*Grid, error) {
	out := &Grid{Geomeans: map[string][]float64{}}
	var cells, bases []func(*system.Config)
	for _, col := range g.columns {
		out.Columns = append(out.Columns, col.label)
		if !g.absolute {
			bases = append(bases, chain(col.shared, sparseAt1x))
		}
	}
	for _, block := range g.blocks {
		for _, s := range block {
			for _, col := range g.columns {
				cells = append(cells, chain(s.set, col.set, col.shared))
			}
		}
	}
	res, err := h.perWorkload(append(cells, bases...)...)
	if err != nil {
		return nil, err
	}
	// vals[c][w] is cell c's value for workload w; cells run in block,
	// series, column order.
	vals := make([][]float64, len(cells))
	for c := range vals {
		for _, rs := range res {
			var base *system.Results
			if !g.absolute {
				base = rs[len(cells)+c%len(bases)]
			}
			vals[c] = append(vals[c], g.metric(rs[c], base))
		}
	}

	heads := g.heads
	if heads == nil {
		heads = []string{"directory"}
	}
	out.Table = stats.NewTable(g.title, slices.Concat([]string{"workload"}, heads, out.Columns)...)
	out.Table.Caption = g.caption
	format := "%.3f"
	if g.absolute {
		format = "%.2f"
	}
	row := func(name string, s series, v func(col int) float64) {
		line := append([]string{name}, s.labels...)
		for col := range g.columns {
			line = append(line, fmt.Sprintf(format, v(col)))
		}
		out.Table.AddRow(line...)
	}
	c := 0 // the block's first cell
	for _, block := range g.blocks {
		for w, name := range h.workloadList() {
			for i, s := range block {
				row(name, s, func(col int) float64 { return vals[c+i*len(g.columns)+col][w] })
			}
		}
		for i, s := range block {
			if g.absolute {
				break
			}
			gm := make([]float64, len(g.columns))
			for col := range gm {
				gm[col] = geomean(vals[c+i*len(g.columns)+col])
			}
			out.Geomeans[strings.Join(s.labels, " ")] = gm
			row("GEOMEAN", s, func(col int) float64 { return gm[col] })
		}
		c += len(block) * len(g.columns)
	}
	return out, nil
}

// Experiment is one table or figure of the evaluation: its id on the
// cmd/experiments command line and the function that renders it.
type Experiment struct {
	ID  string
	Run func() (*stats.Table, error)
}

// Experiments lists every table and figure in the order cmd/experiments
// prints them.
func (h *Harness) Experiments() []Experiment {
	table := func(f func() (*Grid, error)) func() (*stats.Table, error) {
		return func() (*stats.Table, error) {
			g, err := f()
			if err != nil {
				return nil, err
			}
			return g.Table, nil
		}
	}
	return []Experiment{
		{"table1", func() (*stats.Table, error) { return h.Table1Config(), nil }},
		{"table2", h.Table2Workloads},
		{"fig1", func() (*stats.Table, error) { tb, _, err := h.Fig1PrivateFraction(); return tb, err }},
		{"fig2", table(h.Fig2Invalidations)},
		{"fig3", table(h.Fig3ExecTime)},
		{"fig4", table(h.Fig4MissRate)},
		{"fig5", table(h.Fig5Traffic)},
		{"fig5b", func() (*stats.Table, error) { return h.Fig5TrafficBreakdown(0.125) }},
		{"fig6", func() (*stats.Table, error) { tb, _, err := h.Fig6Discovery(); return tb, err }},
		{"fig7", table(h.Fig7Energy)},
		{"fig7b", table(h.Fig7EnergyTotal)},
		{"fig8", table(h.Fig8Associativity)},
		{"fig9", table(h.Fig9Scaling)},
		{"table3", h.Table3Occupancy},
		{"fig10", table(h.Fig10Cuckoo)},
		{"fig11", h.Fig11Ablation},
		{"fig12", table(h.Fig12ProtocolVariants)},
		{"fig13", func() (*stats.Table, error) { tb, _, err := h.Fig13EntryFormat(); return tb, err }},
		{"fig14", table(h.Fig14PrivateL2)},
		{"fig15", table(h.Fig15ReplacementPolicy)},
		{"scaling", table(h.ScalingStudy)},
		{"scaling-recalls", h.ScalingRecalls},
	}
}
