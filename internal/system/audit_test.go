package system

import (
	"testing"

	"repro/internal/coherence"
)

// dirConflict16 is the benchmark's dir-conflict-16 machine: canneal on 16
// cores at 1/8 directory coverage, where nearly every access misses in L1.
func dirConflict16(kind string) Config {
	cfg := DefaultConfig("canneal")
	cfg.DirKind = kind
	cfg.Coverage = 0.125
	cfg.AccessesPerCore = 1000
	return cfg
}

// drivenFabric builds cfg's machine and runs it to quiescence, audit
// included.
func drivenFabric(tb testing.TB, cfg Config) *coherence.Fabric {
	tb.Helper()
	fab, procs, err := Build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := fab.Drive(procs, 0); err != nil {
		tb.Fatal(err)
	}
	return fab
}

// TestAuditAllocFree pins the end-of-run checks' allocation contract: once
// the checker's residency scratch has grown, Audit and StepInvariants
// allocate nothing on a clean machine.
func TestAuditAllocFree(t *testing.T) {
	for _, kind := range []string{DirSparse, DirStash, DirCuckoo} {
		fab := drivenFabric(t, dirConflict16(kind))
		checks := []struct {
			name string
			run  func() []string
		}{
			{"Audit", func() []string { return coherence.Audit(fab) }},
			{"StepInvariants", func() []string { return coherence.StepInvariants(fab, nil) }},
		}
		for _, c := range checks {
			if bad := c.run(); len(bad) != 0 {
				t.Fatalf("%s %s: %v", kind, c.name, bad)
			}
			if n := testing.AllocsPerRun(5, func() { c.run() }); n != 0 {
				t.Errorf("%s %s: %v allocations per call, want 0", kind, c.name, n)
			}
		}
	}
}

// BenchmarkAudit times one end-of-run audit of a driven machine shaped
// like a benchmark workload. scale-256 generates its canneal streams
// instead of replaying trace files; the machine is the same.
func BenchmarkAudit(b *testing.B) {
	scale256 := QuickConfig("canneal")
	scale256.Cores = 256
	scale256.Coverage = 0.125
	scale256.AccessesPerCore = 40
	private16 := DefaultConfig("blackscholes")
	private16.AccessesPerCore = 5000
	machines := []struct {
		name string
		cfg  Config
	}{
		{"dir-conflict-16-stash", dirConflict16(DirStash)},
		{"scale-256-stash", scale256},
		{"private-16", private16},
	}
	for _, m := range machines {
		b.Run(m.name, func(b *testing.B) {
			fab := drivenFabric(b, m.cfg)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if bad := coherence.Audit(fab); len(bad) != 0 {
					b.Fatal(bad[0])
				}
			}
		})
	}
}
