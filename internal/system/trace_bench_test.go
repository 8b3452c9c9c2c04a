package system

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/trace"
	"repro/internal/workloads"
)

// benchScalingFiles writes one binary trace per core for an N-core
// machine. The generation cost is paid outside the timed region; every
// benchmark iteration replays the same files through OpenBinary.
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

// BenchmarkTraceScaling replays binary traces through full-system
// simulation at every core count of the scaling study, 16 through 256,
// and reports sustained events per second. `make bench-trace` records the
// sweep into BENCH_trace.json; the cores=256 entry doubles as the
// acceptance evidence that a 256-core point completes under the default
// (unlimited) event budget.
func BenchmarkTraceScaling(b *testing.B) {
	for _, cores := range []int{16, 32, 64, 128, 256} {
		cores := cores
		b.Run(fmt.Sprintf("cores=%d", cores), func(b *testing.B) {
			files := benchScalingFiles(b, cores, 1500)
			cfg := QuickConfig("")
			cfg.Cores = cores
			cfg.Workload = ""
			cfg.TraceFiles = files
			cfg.Seed = 42
			cfg.Checker = false
			var events uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				events += res.EventsRun
			}
			b.StopTimer()
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(events)/sec, "events/sec")
			}
		})
	}
}
