package system

import (
	"fmt"
	"runtime"
	"testing"
)

// psimBenchConfig is one 16-core sweep point (blackscholes at a quarter
// footprint, 5,000 accesses per core, checker off), run at every shard
// count so serial-vs-parallel events/sec ratios in BENCH_psim.json compare
// like with like.
func psimBenchConfig(shards int) Config {
	cfg := QuickConfig("blackscholes")
	cfg.Cores = 16
	cfg.AccessesPerCore = 5000
	cfg.WorkloadScale = 0.25
	cfg.Checker = false
	cfg.Shards = shards
	return cfg
}

func benchPsim(b *testing.B, shards int) {
	cfg := psimBenchConfig(shards)
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
}

// BenchmarkPsimThroughput sweeps the parallel engine's shard counts over
// the 16-core model and reports sustained events per second next to the
// serial baseline (shards=0). `make bench-psim` records the sweep into
// BENCH_psim.json. Parallel speedup requires host parallelism: with
// GOMAXPROCS=1 every worker shares one OS core and the barrier overhead
// makes the ratio <= 1 by construction, so the sweep names carry the host
// core count for honest cross-machine comparison.
func BenchmarkPsimThroughput(b *testing.B) {
	host := runtime.GOMAXPROCS(0)
	b.Run(fmt.Sprintf("serial/host=%d", host), func(b *testing.B) { benchPsim(b, 0) })
	for _, shards := range []int{2, 4, 8} {
		shards := shards
		b.Run(fmt.Sprintf("shards=%d/host=%d", shards, host), func(b *testing.B) { benchPsim(b, shards) })
	}
}
