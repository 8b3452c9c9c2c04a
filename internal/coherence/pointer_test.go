package coherence

import (
	"testing"

	"repro/internal/mem"
)

func withPointerLimit(p int) fabricOpt {
	return func(c *BuildConfig) { c.Params.PointerLimit = p }
}

func TestPointerLimitOverflowBroadcastsOnWrite(t *testing.T) {
	// Dir_1-B: two readers overflow the single pointer; a writer must then
	// invalidate by broadcast and still end with correct data everywhere.
	f := testFabric(t, 4, fullMapFactory(), withPointerLimit(1))
	load(t, f, 0, 5)
	load(t, f, 1, 5) // overflows the 1-pointer entry
	entry := f.Banks[f.HomeBank(5)].Directory().Probe(5)
	if entry == nil || !entry.Overflowed {
		t.Fatalf("entry did not overflow: %v", entry)
	}
	store(t, f, 2, 5) // broadcast invalidation
	if f.Banks[f.HomeBank(5)].stats.BroadcastInvalidations.Value() == 0 {
		t.Fatal("no broadcast invalidation recorded")
	}
	for _, c := range []int{0, 1} {
		if st := l1State(f, c, 5); st != mem.Invalid {
			t.Fatalf("core %d state = %v, want I after broadcast", c, st)
		}
	}
	// The entry is precise again after the broadcast rebuild.
	entry = f.Banks[f.HomeBank(5)].Directory().Probe(5)
	if entry == nil || entry.Overflowed || entry.Owner() != 2 {
		t.Fatalf("entry not rebuilt precisely: %v", entry)
	}
	load(t, f, 3, 5) // oracle verifies core 2's value
	finishAndAudit(t, f)
}

func TestPointerLimitExactUnderLimit(t *testing.T) {
	// Two pointers, two sharers: no overflow, no broadcast.
	f := testFabric(t, 4, fullMapFactory(), withPointerLimit(2))
	load(t, f, 0, 5)
	load(t, f, 1, 5)
	entry := f.Banks[f.HomeBank(5)].Directory().Probe(5)
	if entry == nil || entry.Overflowed {
		t.Fatalf("entry overflowed below the limit: %v", entry)
	}
	store(t, f, 2, 5)
	if f.Banks[f.HomeBank(5)].stats.BroadcastInvalidations.Value() != 0 {
		t.Fatal("broadcast used although the entry was precise")
	}
	finishAndAudit(t, f)
}

func TestPointerLimitRecallBroadcasts(t *testing.T) {
	// An overflowed entry selected as a conflict victim must be recalled by
	// broadcast.
	f := testFabric(t, 4, sparseFactory(1, 1, 0), withPointerLimit(1))
	load(t, f, 0, 0)
	load(t, f, 1, 0) // overflow
	load(t, f, 2, 4) // same bank, 1-entry dir: recall of overflowed entry
	bk := f.Banks[0]
	if bk.stats.BroadcastInvalidations.Value() == 0 {
		t.Fatal("recall of overflowed entry did not broadcast")
	}
	for _, c := range []int{0, 1} {
		if st := l1State(f, c, 0); st != mem.Invalid {
			t.Fatalf("core %d still holds recalled block (state %v)", c, st)
		}
	}
	finishAndAudit(t, f)
}

func TestPointerLimitPutOnOverflowedEntryIgnored(t *testing.T) {
	f := testFabric(t, 4, fullMapFactory(), withPointerLimit(1), withL1(1, 1))
	load(t, f, 0, 0)
	load(t, f, 1, 0) // overflow (2 sharers, 1 pointer)
	load(t, f, 0, 1) // core 0 evicts block 0 -> PutS; entry must stay overflowed
	entry := f.Banks[f.HomeBank(0)].Directory().Probe(0)
	if entry == nil || !entry.Overflowed {
		t.Fatalf("overflowed entry mutated by PutS: %v", entry)
	}
	// Correctness maintained: a writer still broadcasts and gets everything.
	store(t, f, 2, 0)
	load(t, f, 3, 0)
	finishAndAudit(t, f)
}

func TestPointerLimitStashInteraction(t *testing.T) {
	// Overflowed entries are not private, so the stash directory must not
	// stash them: with only an overflowed victim available it falls back to
	// a (broadcast) recall.
	f := testFabric(t, 4, stashFactory(1, 1, 0, false), withPointerLimit(1))
	load(t, f, 0, 0)
	load(t, f, 1, 0) // overflowed entry in bank 0's only slot
	load(t, f, 2, 4) // conflict: must recall, not stash
	bk := f.Banks[0]
	if v := bk.Directory().Stats().StashEvictions.Value(); v != 0 {
		t.Fatalf("stash directory stashed an overflowed entry (%d)", v)
	}
	if bk.stats.BroadcastInvalidations.Value() == 0 {
		t.Fatal("expected a broadcast recall")
	}
	finishAndAudit(t, f)
}

func TestPointerLimitRandomConcurrent(t *testing.T) {
	for _, limit := range []int{1, 2, 4} {
		for seed := int64(1); seed <= 3; seed++ {
			runRandom(t, stashFactory(2, 2, 0, false), 4, seed, withPointerLimit(limit))
			runRandom(t, sparseFactory(2, 2, 0), 4, seed, withPointerLimit(limit))
		}
	}
	// Combined with MLP and fuzzed ordering.
	f := testFabric(t, 4, stashFactory(1, 2, 0, false),
		withPointerLimit(1), withMSHRs(4), withL1(2, 2))
	f.Engine.SetShuffleSeed(9)
	srcs := randomSources(4, 400, 8, 6, 0.4, 9)
	procs, _ := f.AttachProcessors(srcs)
	if err := f.Drive(procs, 50_000_000); err != nil {
		t.Fatal(err)
	}
}
