package coherence

import (
	"testing"

	"repro/internal/mem"
)

// Protocol hot-path benchmarks. Each drives one steady-state transaction
// shape end to end (L1 access -> NoC -> directory bank -> NoC -> L1) on a
// pre-warmed machine, so allocs/op is the recurring cost of the protocol
// itself. `make bench-protocol` records these into BENCH_protocol.json and
// fails CI if any of them allocates.

// benchFabric builds a machine, disables the checker, and returns a
// pre-bound access driver.
func benchFabric(b *testing.B, cores int, mk dirFactory, opts ...fabricOpt) (*Fabric, func(core int, a mem.Access)) {
	f := testFabric(b, cores, mk, opts...)
	f.Checker.SetEnabled(false)
	done := false
	doneFn := func() { done = true }
	drive := func(core int, a mem.Access) {
		done = false
		f.L1s[core].Access(a, doneFn)
		f.Engine.Run(0)
		if !done {
			b.Fatal("access did not complete")
		}
	}
	return f, drive
}

func BenchmarkProtocolL1Hit(b *testing.B) {
	_, drive := benchFabric(b, 4, fullMapFactory())
	rd := mem.Access{Addr: mem.AddrOf(3)}
	for i := 0; i < 32; i++ {
		drive(0, rd)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drive(0, rd)
	}
}

func BenchmarkProtocolTwoHopMiss(b *testing.B) {
	// Exclusive-ownership ping-pong between two cores: every access is a
	// GetM invalidating the previous owner through the directory.
	_, drive := benchFabric(b, 4, fullMapFactory())
	wr := mem.Access{Addr: mem.AddrOf(3), Write: true}
	for i := 0; i < 32; i++ {
		drive(i%2, wr)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drive(i%2, wr)
	}
}

func BenchmarkProtocolDiscovery(b *testing.B) {
	// One-entry stash slices, two conflicting blocks: the four-phase store
	// rotation keeps the target block hidden with a remote owner, so every
	// access is a discovery broadcast (see TestAllocFreeDiscovery).
	f, drive := benchFabric(b, 4, stashFactory(1, 1, 0, false))
	w0 := mem.Access{Addr: mem.AddrOf(0), Write: true}
	w4 := mem.Access{Addr: mem.AddrOf(4), Write: true}
	phases := []struct {
		core int
		a    mem.Access
	}{
		{2, w0}, {3, w4}, {0, w0}, {1, w4},
	}
	for lap := 0; lap < 8; lap++ {
		for _, p := range phases {
			drive(p.core, p.a)
		}
	}
	if f.Banks[0].Directory().Stats().StashEvictions.Value() == 0 {
		b.Fatal("scenario broken: no stash evictions, so no discovery traffic")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := phases[i%len(phases)]
		drive(p.core, p.a)
	}
}
