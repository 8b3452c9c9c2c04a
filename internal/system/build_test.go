package system

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// buildShape returns the machine of one perfbench simulation workload,
// ready for Build:
//
//   - cores=16 is private-16: blackscholes on DefaultConfig with a 1x
//     stash directory and 5,000 accesses per core. Its generator streams
//     are run once first, so Build replays them from the trace memo as a
//     repeated job does;
//   - cores=256 is scale-256: QuickConfig with a 1/8 stash directory,
//     replaying one .btrace file per core.
func buildShape(tb testing.TB, cores int) Config {
	tb.Helper()
	switch cores {
	case 16:
		cfg := DefaultConfig("blackscholes")
		cfg.DirKind = DirStash
		cfg.Coverage = 1
		cfg.AccessesPerCore = 5000
		cfg.Seed = 1
		if _, err := Run(cfg); err != nil {
			tb.Fatal(err)
		}
		return cfg
	case 256:
		cfg := QuickConfig("")
		cfg.Workload = ""
		cfg.Cores = 256
		cfg.TraceFiles = benchScalingFiles(tb, 256, 40)
		cfg.DirKind = DirStash
		cfg.Coverage = 0.125
		cfg.Seed = 1
		return cfg
	}
	tb.Fatalf("no build shape for %d cores", cores)
	return Config{}
}

// benchScalingFiles writes one binary canneal trace per core for an N-core
// machine, the inputs of the scale-256 build shape.
func benchScalingFiles(b testing.TB, cores, accesses int) []string {
	b.Helper()
	dir := b.TempDir()
	mix, err := workloads.Get("canneal")
	if err != nil {
		b.Fatal(err)
	}
	mix = mix.Scaled(0.25)
	files := make([]string, cores)
	for c := range files {
		s, err := trace.NewStream(mix, c, cores, accesses, 42)
		if err != nil {
			b.Fatal(err)
		}
		p := filepath.Join(dir, fmt.Sprintf("core%03d.btrace", c))
		f, err := os.Create(p)
		if err != nil {
			b.Fatal(err)
		}
		if err := trace.WriteBinarySource(f, s); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		files[c] = p
	}
	return files
}

// TestBuildBytes bounds the heap one Build allocates at the two shapes of
// buildShape. Tag arrays get their lines and replacement state on a set's
// first fill, a trace source's read window is sized to its file and its
// decode batch to the records in it, so a build pays for its slot maps,
// controllers and sources rather than for the capacity it models; a bound
// crossed here is a per-line or per-core cost that every simulation job
// pays before its first event. The caps are the measured 0.64 MB and
// 1.76 MB with margins of about half and 14%. A 256-core build whose
// batches held one access per payload byte took 2.31 MB, and one that
// allocated every LLC line up front 22.5 MB (9.2 MB at 16 cores).
func TestBuildBytes(t *testing.T) {
	for _, tc := range []struct {
		cores int
		maxMB float64
	}{
		{16, 1},
		{256, 2},
	} {
		cfg := buildShape(t, tc.cores)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, procs, err := Build(cfg)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if err := finishSources(procs); err != nil {
			t.Fatal(err)
		}
		mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		t.Logf("cores=%d: Build allocates %.3f MB", tc.cores, mb)
		if mb > tc.maxMB {
			t.Errorf("cores=%d: Build allocates %.3f MB, want at most %.1f MB", tc.cores, mb, tc.maxMB)
		}
	}
}

// BenchmarkBuild times one Build at each shape of buildShape, with the
// bytes and allocations it costs. `make bench-trace` records it into
// BENCH_trace.json.
func BenchmarkBuild(b *testing.B) {
	for _, cores := range []int{16, 256} {
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			cfg := buildShape(b, cores)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, procs, err := Build(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := finishSources(procs); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}
