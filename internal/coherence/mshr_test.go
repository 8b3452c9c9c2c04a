package coherence

import (
	"testing"

	"repro/internal/mem"
)

func withMSHRs(n int) fabricOpt {
	return func(c *BuildConfig) { c.Params.MSHRs = n }
}

// driveStream runs one core's access list through processors and returns
// total cycles.
func driveStream(t *testing.T, f *Fabric, lists ...[]mem.Access) uint64 {
	t.Helper()
	srcs := make([]AccessSource, f.Params.Cores)
	for i := range srcs {
		if i < len(lists) {
			srcs[i] = &SliceSource{Accesses: lists[i]}
		} else {
			srcs[i] = &SliceSource{}
		}
	}
	procs, err := f.AttachProcessors(srcs)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Drive(procs, 10_000_000); err != nil {
		t.Fatal(err)
	}
	return uint64(f.Engine.Now())
}

func TestMLPOverlapsIndependentMisses(t *testing.T) {
	// 8 misses to 8 different banks: a 1-MSHR core serializes ~8 memory
	// latencies; an 8-MSHR core overlaps them.
	accs := make([]mem.Access, 8)
	for i := range accs {
		accs[i] = mem.Access{Addr: mem.AddrOf(mem.Block(i))}
	}
	run := func(mshrs int) uint64 {
		f := testFabric(t, 4, fullMapFactory(), withMSHRs(mshrs))
		return driveStream(t, f, accs)
	}
	serial, overlapped := run(1), run(8)
	if overlapped*2 > serial {
		t.Fatalf("8 MSHRs (%d cycles) should be far faster than 1 (%d cycles)", overlapped, serial)
	}
}

func TestMSHRCoalescingSameBlock(t *testing.T) {
	// Multiple accesses to one missing block: only one GetS may reach the
	// bank; the rest coalesce.
	accs := []mem.Access{
		{Addr: mem.AddrOf(5)},
		{Addr: mem.AddrOf(5)},
		{Addr: mem.AddrOf(5)},
		{Addr: mem.AddrOf(5)},
	}
	f := testFabric(t, 4, fullMapFactory(), withMSHRs(4))
	driveStream(t, f, accs)
	var reqs int64
	for _, bk := range f.Banks {
		reqs += bk.stats.GetS.Value() + bk.stats.GetM.Value()
	}
	if reqs != 1 {
		t.Fatalf("bank saw %d requests, want 1 (coalesced)", reqs)
	}
	if f.L1s[0].stats.MSHRCoalesced.Value() == 0 {
		t.Fatal("no coalescing recorded")
	}
}

func TestMSHRCoalescedStoreUpgradesAfterSharedGrant(t *testing.T) {
	// A store coalesced behind a load to a block another core shares: the
	// load grant is Shared, so the replayed store must upgrade.
	f := testFabric(t, 4, fullMapFactory(), withMSHRs(4))
	load(t, f, 1, 5) // core 1 shares the block -> core 0 gets DataS later
	accs := []mem.Access{
		{Addr: mem.AddrOf(5)},              // load (miss)
		{Addr: mem.AddrOf(5), Write: true}, // store coalesces, then upgrades
	}
	driveStream(t, f, accs)
	if st := l1State(f, 0, 5); st != mem.Modified {
		t.Fatalf("core 0 state = %v, want M", st)
	}
	if st := l1State(f, 1, 5); st != mem.Invalid {
		t.Fatalf("core 1 state = %v, want I (invalidated by replayed store)", st)
	}
}

func TestMSHRSetConflictStalls(t *testing.T) {
	// A 1-set 2-way L1 with 4 MSHRs: issuing 4 misses to 4 blocks of the
	// same set must stall the extra ones rather than corrupt the set, and
	// still complete correctly.
	f := testFabric(t, 4, fullMapFactory(), withMSHRs(4), withL1(1, 2))
	accs := []mem.Access{
		{Addr: mem.AddrOf(0)},
		{Addr: mem.AddrOf(1)},
		{Addr: mem.AddrOf(2)},
		{Addr: mem.AddrOf(3)},
	}
	driveStream(t, f, accs)
	if f.L1s[0].stats.MSHRStalls.Value() == 0 {
		t.Fatal("no MSHR set-conflict stalls recorded")
	}
}

func TestMLPRandomConcurrentAllOrganizations(t *testing.T) {
	for _, mk := range []dirFactory{
		fullMapFactory(),
		sparseFactory(1, 2, 0),
		stashFactory(1, 2, 0, false),
	} {
		for _, mshrs := range []int{2, 4, 8} {
			for seed := int64(1); seed <= 2; seed++ {
				f := testFabric(t, 4, mk, withMSHRs(mshrs), withL1(2, 2))
				srcs := randomSources(4, 300, 8, 8, 0.4, seed)
				procs, _ := f.AttachProcessors(srcs)
				if err := f.Drive(procs, 50_000_000); err != nil {
					t.Fatalf("mshrs=%d seed=%d: %v", mshrs, seed, err)
				}
			}
		}
	}
}

func TestMLPWithThreeHopAndFuzz(t *testing.T) {
	for shuffle := uint64(1); shuffle <= 3; shuffle++ {
		f := testFabric(t, 4, stashFactory(1, 2, 0, false),
			withMSHRs(4), withThreeHop(), withL1(2, 2))
		f.Engine.SetShuffleSeed(shuffle)
		srcs := randomSources(4, 300, 8, 6, 0.4, int64(shuffle))
		procs, _ := f.AttachProcessors(srcs)
		if err := f.Drive(procs, 50_000_000); err != nil {
			t.Fatalf("shuffle %d: %v", shuffle, err)
		}
	}
}

func TestMLPSixteenCoresStash(t *testing.T) {
	f := testFabric(t, 16, stashFactory(2, 2, 0, false), withMSHRs(4))
	srcs := randomSources(16, 300, 12, 16, 0.3, 5)
	procs, _ := f.AttachProcessors(srcs)
	if err := f.Drive(procs, 100_000_000); err != nil {
		t.Fatal(err)
	}
}
