package system

import "testing"

// TestParallelRunAllocParity pins the parallel path's per-run allocation
// overhead. Before the slab-seeded timing wheels and the gated checker
// oracle, a shards run cost ~2.5x the allocations of the identical serial
// run (7.6k vs 3.1k on the 16-core sweep point: 17 event queues each
// bringing up 256 ring buffers one make() at a time, plus per-tile oracle
// maps growing to the store working set). Each queue now carves its ring
// buffers from slab chunks that double as buckets come into use, so a
// queue that touches its whole wheel costs six allocations, and a shards
// run must stay within 1.8x of serial. A regression here means per-tile
// construction started allocating per bucket (or per store) again.
func TestParallelRunAllocParity(t *testing.T) {
	if testing.Short() {
		t.Skip("full runs under AllocsPerRun")
	}
	run := func(shards int) float64 {
		cfg := psimBenchConfig(shards)
		return testing.AllocsPerRun(2, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	serial := run(0)
	parallel := run(2)
	t.Logf("allocs/run: serial=%.0f shards=2 %.0f (ratio %.2f)", serial, parallel, parallel/serial)
	if serial == 0 {
		t.Fatal("serial run reported zero allocations; measurement broken")
	}
	if ratio := parallel / serial; ratio > 1.8 {
		t.Errorf("parallel run allocates %.2fx the serial run (%.0f vs %.0f); per-tile setup regressed", ratio, parallel, serial)
	}
}
