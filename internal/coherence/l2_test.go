package coherence

import (
	"repro/internal/core"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
)

func withL2(sets, ways int) fabricOpt {
	return func(c *BuildConfig) {
		c.L2 = &cache.Config{Name: "l2", Sets: sets, Ways: ways}
	}
}

func l2State(f *Fabric, coreID int, b mem.Block) mem.State {
	if l2 := f.L1s[coreID].L2(); l2 != nil {
		if ln := l2.Probe(b); ln != nil {
			return ln.State
		}
	}
	return mem.Invalid
}

func TestL2FillsBothLevels(t *testing.T) {
	f := testFabric(t, 4, fullMapFactory(), withL2(8, 4))
	load(t, f, 0, 7)
	if st := l1State(f, 0, 7); st != mem.Exclusive {
		t.Fatalf("L1 state = %v, want E", st)
	}
	if st := l2State(f, 0, 7); st != mem.Exclusive {
		t.Fatalf("L2 state = %v, want E", st)
	}
	finishAndAudit(t, f)
}

func TestL2HitServicesLocally(t *testing.T) {
	// Fill 3 blocks of one L1 set (2 ways): block 0 falls out of L1 into
	// L2. Re-reading it must hit the L2 without any bank request.
	f := testFabric(t, 4, fullMapFactory(), withL1(1, 2), withL2(8, 4))
	load(t, f, 0, 0)
	load(t, f, 0, 1)
	load(t, f, 0, 2) // L1 evicts 0 -> folds into L2 (no Put message)
	if l1State(f, 0, 0) != mem.Invalid || l2State(f, 0, 0) != mem.Exclusive {
		t.Fatalf("block 0 not L2-only: L1=%v L2=%v", l1State(f, 0, 0), l2State(f, 0, 0))
	}
	var reqs int64
	for _, bk := range f.Banks {
		reqs += bk.stats.GetS.Value()
	}
	load(t, f, 0, 0) // L2 hit
	var reqs2 int64
	for _, bk := range f.Banks {
		reqs2 += bk.stats.GetS.Value()
	}
	if reqs2 != reqs {
		t.Fatalf("L2 hit went to the bank (%d -> %d requests)", reqs, reqs2)
	}
	if f.L1s[0].stats.L2Hits.Value() == 0 {
		t.Fatal("no L2 hit recorded")
	}
	finishAndAudit(t, f)
}

func TestL2DirtyFoldAndWriteback(t *testing.T) {
	// A dirty L1 victim folds into the L2 silently; evicting it from the
	// L2 writes it back; the value survives (oracle-checked on re-read).
	f := testFabric(t, 4, fullMapFactory(), withL1(1, 1), withL2(1, 2))
	store(t, f, 0, 0)
	load(t, f, 0, 1) // L1 evicts dirty 0 into L2 (no writeback yet)
	if f.L1s[0].stats.Writebacks.Value() != 0 {
		t.Fatal("L1->L2 fold produced a writeback")
	}
	if st := l2State(f, 0, 0); st != mem.Modified {
		t.Fatalf("L2 state = %v, want M after dirty fold", st)
	}
	load(t, f, 0, 2) // L2 (2 ways) evicts one of {0,1}: PutM/PutE to bank
	load(t, f, 1, 0) // another core reads: must see core 0's value
	finishAndAudit(t, f)
}

func TestL2SnoopFindsL2OnlyDirtyBlock(t *testing.T) {
	f := testFabric(t, 4, fullMapFactory(), withL1(1, 1), withL2(8, 4))
	store(t, f, 0, 0)
	load(t, f, 0, 1) // dirty block 0 now lives only in core 0's L2
	load(t, f, 1, 0) // Fetch must retrieve the dirty data from the L2
	if st := l2State(f, 0, 0); st != mem.Shared {
		t.Fatalf("L2 state after downgrade = %v, want S", st)
	}
	finishAndAudit(t, f)
}

func TestL2UpgradeFromL2OnlySharedLine(t *testing.T) {
	f := testFabric(t, 4, fullMapFactory(), withL1(1, 1), withL2(8, 4))
	load(t, f, 0, 0)
	load(t, f, 1, 0)  // both Shared
	load(t, f, 0, 1)  // core 0's L1 drops 0; S copy remains in its L2
	store(t, f, 0, 0) // upgrade from an L2-only Shared line
	if st := l1State(f, 0, 0); st != mem.Modified {
		t.Fatalf("L1 state = %v, want M", st)
	}
	if st := l1State(f, 1, 0); st != mem.Invalid {
		t.Fatalf("sharer state = %v, want I", st)
	}
	load(t, f, 2, 0)
	finishAndAudit(t, f)
}

func TestL2StashDiscoveryFindsL2OnlyBlock(t *testing.T) {
	// The stash scenario through the hierarchy: a dirty block hidden by a
	// stash eviction lives only in the owner's L2; discovery must find it.
	f := testFabric(t, 4, stashFactory(1, 1, 0, false), withL1(1, 1), withL2(8, 4))
	store(t, f, 0, 0)
	load(t, f, 0, 1) // L1 evicts 0 into L2 (block stays tracked)
	load(t, f, 1, 4) // same bank: stashes block 0's entry -> hidden
	bk := f.Banks[0]
	if bk.stats.HiddenSet.Value() == 0 {
		t.Fatal("entry was not stashed")
	}
	load(t, f, 2, 0) // discovery must find core 0's L2 copy with dirty data
	if bk.stats.DiscoveryFound.Value() == 0 {
		t.Fatal("discovery did not find the L2-only hidden block")
	}
	finishAndAudit(t, f)
}

func TestL2SmallerThanL1Rejected(t *testing.T) {
	cfg := BuildConfig{
		Params: DefaultParams(1),
		Mesh:   meshFor(1),
		L1:     cache.Config{Name: "l1", Sets: 4, Ways: 2},
		L2:     &cache.Config{Name: "l2", Sets: 1, Ways: 2},
		LLC:    cache.Config{Name: "llc", Sets: 16, Ways: 4},
		NewDirectory: func(int) (core.Directory, error) {
			return core.NewFullMap(), nil
		},
	}
	if _, err := NewFabric(cfg); err == nil {
		t.Fatal("L2 smaller than L1 accepted")
	}
}

func TestL2RandomConcurrent(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		runRandom(t, stashFactory(1, 2, 0, false), 4, seed, withL1(2, 2), withL2(4, 4))
		runRandom(t, sparseFactory(1, 2, 0), 4, seed, withL1(2, 2), withL2(4, 4))
	}
}

func TestL2RandomWithEverything(t *testing.T) {
	// L2 + MSHRs + three-hop + pointer limit + fuzzed ordering + silent
	// evictions: the full feature matrix under stress.
	for shuffle := uint64(1); shuffle <= 3; shuffle++ {
		f := testFabric(t, 4, stashFactory(1, 2, 0, false),
			withL1(2, 2), withL2(4, 4), withMSHRs(4), withThreeHop(), withPointerLimit(2))
		f.Engine.SetShuffleSeed(shuffle)
		srcs := randomSources(4, 400, 8, 8, 0.4, int64(shuffle))
		procs, _ := f.AttachProcessors(srcs)
		if err := f.Drive(procs, 50_000_000); err != nil {
			t.Fatalf("shuffle %d: %v", shuffle, err)
		}
	}
	for seed := int64(1); seed <= 2; seed++ {
		runRandom(t, stashFactory(1, 2, 0, false), 4, seed,
			withL1(2, 2), withL2(4, 4), withSilentEvictions())
	}
}

func TestL2SixteenCores(t *testing.T) {
	runRandom(t, stashFactory(2, 2, 0, false), 16, 3, withL1(2, 2), withL2(4, 4))
}
