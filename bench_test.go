// Benchmarks: one testing.B per table/figure of the paper's evaluation.
// Each bench regenerates its experiment at reduced scale (quick machine,
// three representative workloads, shortened streams) and reports the
// figure's key quantity via b.ReportMetric, so `go test -bench=.` both
// exercises the full experiment pipeline and prints the reproduced shape.
// cmd/experiments regenerates the same tables at full scale.
package stashsim_test

import (
	"testing"

	"repro/internal/experiments"
	"repro/internal/system"
)

// benchWorkloads is the representative subset used at bench scale: the most
// private workload, the most directory-hostile one, and a migratory one.
var benchWorkloads = []string{"blackscholes", "canneal", "barnes"}

// benchHarness returns a bench-scale harness that closes when b ends.
func benchHarness(b *testing.B, workloads ...string) *experiments.Harness {
	if len(workloads) == 0 {
		workloads = benchWorkloads
	}
	h := experiments.NewHarness(experiments.Options{
		Quick:     true,
		Workloads: workloads,
		ConfigHook: func(c *system.Config) {
			c.AccessesPerCore = 6000
			c.WorkloadScale = 0.25
		},
	})
	b.Cleanup(h.Close)
	return h
}

func BenchmarkTable1Config(b *testing.B) {
	h := benchHarness(b)
	for i := 0; i < b.N; i++ {
		if tb := h.Table1Config(); len(tb.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness(b)
		if _, err := h.Table2Workloads(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1PrivateFraction(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		h := benchHarness(b)
		_, vals, err := h.Fig1PrivateFraction()
		if err != nil {
			b.Fatal(err)
		}
		mean = vals["MEAN"]
	}
	b.ReportMetric(mean, "private-fraction")
}

func BenchmarkFig2Invalidations(b *testing.B) {
	var at8 float64
	for i := 0; i < b.N; i++ {
		h := benchHarness(b)
		r, err := h.Fig2Invalidations()
		if err != nil {
			b.Fatal(err)
		}
		at8 = r.Geomean(system.DirSparse, "1/8")
	}
	b.ReportMetric(at8, "sparse-conflict-invs-per-1k-acc@1/8")
}

func BenchmarkFig3ExecTime(b *testing.B) {
	var stash8, sparse8 float64
	for i := 0; i < b.N; i++ {
		h := benchHarness(b)
		r, err := h.Fig3ExecTime()
		if err != nil {
			b.Fatal(err)
		}
		stash8 = r.Geomean(system.DirStash, "1/8")
		sparse8 = r.Geomean(system.DirSparse, "1/8")
	}
	b.ReportMetric(stash8, "stash-normtime@1/8")
	b.ReportMetric(sparse8, "sparse-normtime@1/8")
}

func BenchmarkFig4MissRate(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		h := benchHarness(b)
		r, err := h.Fig4MissRate()
		if err != nil {
			b.Fatal(err)
		}
		v = r.Geomean(system.DirStash, "1/8")
	}
	b.ReportMetric(v, "stash-norm-missrate@1/8")
}

func BenchmarkFig5Traffic(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		h := benchHarness(b)
		r, err := h.Fig5Traffic()
		if err != nil {
			b.Fatal(err)
		}
		v = r.Geomean(system.DirStash, "1/8")
		if _, err := h.Fig5TrafficBreakdown(0.125); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(v, "stash-norm-traffic@1/8")
}

func BenchmarkFig6Discovery(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		h := benchHarness(b)
		_, means, err := h.Fig6Discovery()
		if err != nil {
			b.Fatal(err)
		}
		v = means[0.125]
	}
	b.ReportMetric(v, "discoveries-per-1k-llc@1/8")
}

func BenchmarkFig7Energy(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		h := benchHarness(b)
		r, err := h.Fig7Energy()
		if err != nil {
			b.Fatal(err)
		}
		v = r.Geomean(system.DirStash, "1/8")
		if _, err := h.Fig7EnergyTotal(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(v, "stash-norm-dir-energy@1/8")
}

func BenchmarkFig8Associativity(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		h := benchHarness(b, "canneal")
		g, err := h.Fig8Associativity()
		if err != nil {
			b.Fatal(err)
		}
		v = g.Geomean(system.DirStash, "4-way")
	}
	b.ReportMetric(v, "stash-normtime@1/8-4way")
}

func BenchmarkFig9Scaling(b *testing.B) {
	var v64 float64
	for i := 0; i < b.N; i++ {
		h := benchHarness(b, "canneal")
		g, err := h.Fig9Scaling()
		if err != nil {
			b.Fatal(err)
		}
		v64 = g.Geomean(system.DirStash, "64-core")
	}
	b.ReportMetric(v64, "stash-normtime@1/8-64core")
}

func BenchmarkTable3Occupancy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness(b)
		if _, err := h.Table3Occupancy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10Cuckoo(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		h := benchHarness(b, "canneal")
		r, err := h.Fig10Cuckoo()
		if err != nil {
			b.Fatal(err)
		}
		v = r.Geomean(system.DirCuckoo, "1/8")
	}
	b.ReportMetric(v, "cuckoo-normtime@1/8")
}

func BenchmarkFig11Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := benchHarness(b, "canneal")
		if _, err := h.Fig11Ablation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12ProtocolVariants(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		h := benchHarness(b, "canneal")
		g, err := h.Fig12ProtocolVariants()
		if err != nil {
			b.Fatal(err)
		}
		v = g.Geomean(system.DirStash, "3hop/4mshr")
	}
	b.ReportMetric(v, "stash-normtime@1/8-3hop-4mshr")
}

func BenchmarkFig13EntryFormat(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		h := benchHarness(b, "canneal")
		_, gm, err := h.Fig13EntryFormat()
		if err != nil {
			b.Fatal(err)
		}
		v = gm["ptr2-B"]
	}
	b.ReportMetric(v, "stash-normtime@1/8-ptr2B")
}

func BenchmarkFig14PrivateL2(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		h := benchHarness(b, "canneal")
		g, err := h.Fig14PrivateL2()
		if err != nil {
			b.Fatal(err)
		}
		v = g.Geomean(system.DirStash, "1/8")
	}
	b.ReportMetric(v, "stash-normtime@1/8-withL2")
}

func BenchmarkFig15ReplacementPolicy(b *testing.B) {
	var v float64
	for i := 0; i < b.N; i++ {
		h := benchHarness(b, "canneal")
		g, err := h.Fig15ReplacementPolicy()
		if err != nil {
			b.Fatal(err)
		}
		v = g.Geomean(system.DirStash, "random")
	}
	b.ReportMetric(v, "stash-normtime@1/8-random-policy")
}
