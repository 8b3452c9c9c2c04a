package core

import (
	"testing"
	"testing/quick"

	"repro/internal/cache"
	"repro/internal/mem"
)

func TestSharerSet(t *testing.T) {
	var s SharerSet
	if !s.Empty() || s.Count() != 0 || s.Only() != -1 {
		t.Fatal("zero sharer set wrong")
	}
	s.Add(3)
	if !s.Has(3) || s.Count() != 1 || s.Only() != 3 || s.Empty() {
		t.Fatalf("after Add(3): %v", s)
	}
	s.Add(3) // idempotent
	if s.Count() != 1 {
		t.Fatal("Add not idempotent")
	}
	s.Add(0)
	s.Add(63)
	if s.Count() != 3 || s.Only() != -1 {
		t.Fatalf("count = %d", s.Count())
	}
	var seen []int
	s.ForEach(func(c int) { seen = append(seen, c) })
	want := []int{0, 3, 63}
	if len(seen) != 3 {
		t.Fatalf("ForEach visited %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", seen, want)
		}
	}
	s.Remove(3)
	if s.Has(3) || s.Count() != 2 {
		t.Fatal("Remove failed")
	}
	s.Remove(3) // idempotent
	if s.Count() != 2 {
		t.Fatal("Remove not idempotent")
	}

	// Cores past the first 64-bit word.
	s.Clear()
	if !s.Empty() {
		t.Fatal("Clear left residue")
	}
	for _, c := range []int{64, 127, 128, 255} {
		s.Add(c)
		if !s.Has(c) {
			t.Fatalf("high core %d missing", c)
		}
	}
	if s.Count() != 4 {
		t.Fatalf("count = %d, want 4", s.Count())
	}
	seen = seen[:0]
	s.ForEach(func(c int) { seen = append(seen, c) })
	want = []int{64, 127, 128, 255}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("high-word ForEach order %v, want %v", seen, want)
		}
	}
	s.Clear()
	s.Add(200)
	if s.Only() != 200 {
		t.Fatalf("Only() = %d, want 200", s.Only())
	}
}

func TestSharerSetProperty(t *testing.T) {
	f := func(adds []uint16) bool {
		var s SharerSet
		ref := map[int]bool{}
		for _, a := range adds {
			c := int(a) % MaxCores
			if a%3 == 0 {
				s.Remove(c)
				delete(ref, c)
			} else {
				s.Add(c)
				ref[c] = true
			}
		}
		if s.Count() != len(ref) {
			return false
		}
		for c := range ref {
			if !s.Has(c) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEntryOwnerAndPrivate(t *testing.T) {
	e := &Entry{}
	e.reset(7)
	if e.Owner() != -1 || e.Private() {
		t.Fatal("fresh entry should be unowned and not private")
	}
	e.Sharers.Add(4)
	e.Owned = true
	if e.Owner() != 4 || !e.Private() {
		t.Fatalf("owner = %d", e.Owner())
	}
	e.Owned = false
	e.Sharers.Add(9)
	if e.Owner() != -1 || e.Private() {
		t.Fatal("two-sharer entry misclassified")
	}
}

// directoryUnderTest builds each organization with roughly equal capacity.
func directoriesUnderTest(t *testing.T) map[string]Directory {
	t.Helper()
	sparse, err := NewSparse(AssocConfig{Sets: 16, Ways: 4})
	if err != nil {
		t.Fatal(err)
	}
	stash, err := NewStash(StashConfig{AssocConfig: AssocConfig{Sets: 16, Ways: 4}})
	if err != nil {
		t.Fatal(err)
	}
	cuckoo, err := NewCuckoo(CuckooConfig{Ways: 4, SlotsPerWay: 16, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Directory{
		"fullmap": NewFullMap(),
		"sparse":  sparse,
		"stash":   stash,
		"cuckoo":  cuckoo,
	}
}

func TestLookupAllocateRemoveAllOrgs(t *testing.T) {
	for name, d := range directoriesUnderTest(t) {
		if d.Lookup(42) != nil {
			t.Errorf("%s: lookup in empty directory hit", name)
		}
		res := d.Allocate(42, nil)
		if res.Outcome != AllocOK {
			t.Fatalf("%s: Allocate outcome %v", name, res.Outcome)
		}
		res.Entry.Sharers.Add(2)
		res.Entry.Owned = true
		e := d.Lookup(42)
		if e == nil || e.Block != 42 || e.Owner() != 2 {
			t.Fatalf("%s: lookup after allocate: %v", name, e)
		}
		if d.OccupiedEntries() != 1 {
			t.Errorf("%s: occupancy = %d", name, d.OccupiedEntries())
		}
		d.Remove(42)
		if d.Lookup(42) != nil || d.OccupiedEntries() != 0 {
			t.Errorf("%s: entry survives Remove", name)
		}
		// Removing twice is harmless.
		d.Remove(42)
	}
}

func TestProbeDoesNotCount(t *testing.T) {
	for name, d := range directoriesUnderTest(t) {
		d.Allocate(1, nil)
		before := d.Stats().Lookups.Value()
		d.Probe(1)
		d.Probe(2)
		if d.Stats().Lookups.Value() != before {
			t.Errorf("%s: Probe counted as lookup", name)
		}
	}
}

func TestForEachVisitsAll(t *testing.T) {
	for name, d := range directoriesUnderTest(t) {
		blocks := []mem.Block{1, 2, 3, 100, 200}
		for _, b := range blocks {
			r := d.Allocate(b, nil)
			if r.Outcome != AllocOK {
				t.Fatalf("%s: alloc %d: %v", name, b, r.Outcome)
			}
			r.Entry.Sharers.Add(0)
		}
		seen := map[mem.Block]bool{}
		d.ForEach(func(e *Entry) { seen[e.Block] = true })
		for _, b := range blocks {
			if !seen[b] {
				t.Errorf("%s: ForEach missed %d", name, b)
			}
		}
		if len(seen) != len(blocks) {
			t.Errorf("%s: ForEach visited %d entries, want %d", name, len(seen), len(blocks))
		}
	}
}

func TestSparseConflictDemandsRecall(t *testing.T) {
	d, err := NewSparse(AssocConfig{Sets: 1, Ways: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []mem.Block{1, 2} {
		r := d.Allocate(b, nil)
		r.Entry.Sharers.Add(0)
		r.Entry.Owned = true
	}
	r := d.Allocate(3, nil)
	if r.Outcome != AllocNeedsRecall {
		t.Fatalf("outcome = %v, want needs-recall", r.Outcome)
	}
	if r.Victim == nil || (r.Victim.Block != 1 && r.Victim.Block != 2) {
		t.Fatalf("victim = %v", r.Victim)
	}
	// LRU: block 1 was inserted first and never touched again -> victim.
	if r.Victim.Block != 1 {
		t.Fatalf("victim = %d, want LRU block 1", r.Victim.Block)
	}
	// The protocol recalls, removes the victim, retries.
	d.Remove(r.Victim.Block)
	r2 := d.Allocate(3, nil)
	if r2.Outcome != AllocOK {
		t.Fatalf("retry outcome = %v", r2.Outcome)
	}
	if d.Stats().RecallEvictions.Value() != 1 {
		t.Fatal("recall not counted")
	}
}

func TestSparseBusyBlocksAllocation(t *testing.T) {
	d, _ := NewSparse(AssocConfig{Sets: 1, Ways: 2})
	for _, b := range []mem.Block{1, 2} {
		r := d.Allocate(b, nil)
		r.Entry.Sharers.Add(0)
	}
	r := d.Allocate(3, func(b mem.Block) bool { return true })
	if r.Outcome != AllocBlocked {
		t.Fatalf("outcome = %v, want blocked", r.Outcome)
	}
	// Busy only for block 1: victim must be block 2.
	r = d.Allocate(3, func(b mem.Block) bool { return b == 1 })
	if r.Outcome != AllocNeedsRecall || r.Victim.Block != 2 {
		t.Fatalf("outcome = %v victim = %v", r.Outcome, r.Victim)
	}
}

func TestStashPrefersStashableVictim(t *testing.T) {
	d, err := NewStash(StashConfig{AssocConfig: AssocConfig{Sets: 1, Ways: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Entry 1: shared by two cores (not stashable).
	r := d.Allocate(1, nil)
	r.Entry.Sharers.Add(0)
	r.Entry.Sharers.Add(1)
	// Entry 2: private owned (stashable) and MRU.
	r = d.Allocate(2, nil)
	r.Entry.Sharers.Add(3)
	r.Entry.Owned = true

	// Even though entry 1 is LRU, the stashable entry 2 must be chosen and
	// dropped silently.
	res := d.Allocate(5, nil)
	if res.Outcome != AllocStashed {
		t.Fatalf("outcome = %v, want stashed", res.Outcome)
	}
	if res.Stashed.Block != 2 || res.Stashed.Owner != 3 {
		t.Fatalf("stashed = %+v", res.Stashed)
	}
	if res.Entry == nil || !res.Entry.Valid() || res.Entry.Block != 5 {
		t.Fatalf("entry = %v", res.Entry)
	}
	if d.Probe(2) != nil {
		t.Fatal("stashed entry still tracked")
	}
	if d.Stats().StashEvictions.Value() != 1 {
		t.Fatal("stash eviction not counted")
	}
	if d.Stats().RecallEvictions.Value() != 0 {
		t.Fatal("unexpected recall")
	}
}

func TestStashFallsBackToRecall(t *testing.T) {
	d, _ := NewStash(StashConfig{AssocConfig: AssocConfig{Sets: 1, Ways: 2}})
	// Both entries shared by two cores: nothing stashable.
	for _, b := range []mem.Block{1, 2} {
		r := d.Allocate(b, nil)
		r.Entry.Sharers.Add(0)
		r.Entry.Sharers.Add(1)
	}
	res := d.Allocate(3, nil)
	if res.Outcome != AllocNeedsRecall {
		t.Fatalf("outcome = %v, want needs-recall", res.Outcome)
	}
}

func TestStashSingletonSharedFlag(t *testing.T) {
	mk := func(flag bool) *Stash {
		d, _ := NewStash(StashConfig{
			AssocConfig:          AssocConfig{Sets: 1, Ways: 1},
			StashSingletonShared: flag,
		})
		r := d.Allocate(1, nil)
		r.Entry.Sharers.Add(2) // single sharer, Shared state (Owned=false)
		return d
	}
	// Without the flag: singleton-S is not stashable -> recall.
	d := mk(false)
	if res := d.Allocate(2, nil); res.Outcome != AllocNeedsRecall {
		t.Fatalf("outcome = %v, want needs-recall", res.Outcome)
	}
	// With the flag: stashable.
	d = mk(true)
	if res := d.Allocate(2, nil); res.Outcome != AllocStashed {
		t.Fatalf("outcome = %v, want stashed", res.Outcome)
	} else if res.Stashed.Owner != 2 {
		t.Fatalf("stashed owner = %d", res.Stashed.Owner)
	}
}

func TestStashBusyVictimSkipped(t *testing.T) {
	d, _ := NewStash(StashConfig{AssocConfig: AssocConfig{Sets: 1, Ways: 2}})
	// Two stashable entries.
	for i, b := range []mem.Block{1, 2} {
		r := d.Allocate(b, nil)
		r.Entry.Sharers.Add(i)
		r.Entry.Owned = true
	}
	res := d.Allocate(3, func(b mem.Block) bool { return b == 1 })
	if res.Outcome != AllocStashed || res.Stashed.Block != 2 {
		t.Fatalf("res = %+v", res)
	}
}

func TestCuckooRelocatesInsteadOfRecalling(t *testing.T) {
	// Small cuckoo table filled to moderate occupancy must keep absorbing
	// inserts via relocation without any recall.
	d, err := NewCuckoo(CuckooConfig{Ways: 4, SlotsPerWay: 64, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	n := d.Capacity() * 3 / 4
	for i := 0; i < n; i++ {
		res := d.Allocate(mem.Block(i), nil)
		if res.Outcome != AllocOK {
			t.Fatalf("insert %d/%d: outcome %v (recalls=%d)",
				i, n, res.Outcome, d.Stats().RecallEvictions.Value())
		}
		res.Entry.Sharers.Add(i % 16)
	}
	if d.OccupiedEntries() != n {
		t.Fatalf("occupancy = %d, want %d", d.OccupiedEntries(), n)
	}
	// Every inserted block must still be findable after relocations.
	for i := 0; i < n; i++ {
		if d.Probe(mem.Block(i)) == nil {
			t.Fatalf("block %d lost after relocations", i)
		}
	}
}

func TestCuckooRecallWhenSaturated(t *testing.T) {
	d, _ := NewCuckoo(CuckooConfig{Ways: 2, SlotsPerWay: 2, Seed: 1, MaxPathLen: 4})
	outcomes := map[AllocOutcome]int{}
	for i := 0; i < 32; i++ {
		res := d.Allocate(mem.Block(i), nil)
		outcomes[res.Outcome]++
		switch res.Outcome {
		case AllocOK:
			res.Entry.Sharers.Add(0)
		case AllocNeedsRecall:
			d.Remove(res.Victim.Block)
			res2 := d.Allocate(mem.Block(i), nil)
			if res2.Outcome != AllocOK {
				t.Fatalf("retry after recall: %v", res2.Outcome)
			}
			res2.Entry.Sharers.Add(0)
		default:
			t.Fatalf("unexpected outcome %v", res.Outcome)
		}
	}
	if outcomes[AllocNeedsRecall] == 0 {
		t.Fatal("saturated 4-entry cuckoo never demanded a recall")
	}
}

func TestCuckooValidation(t *testing.T) {
	if _, err := NewCuckoo(CuckooConfig{Ways: 1, SlotsPerWay: 4}); err == nil {
		t.Error("ways=1 accepted")
	}
	if _, err := NewCuckoo(CuckooConfig{Ways: 2, SlotsPerWay: 0}); err == nil {
		t.Error("slots=0 accepted")
	}
}

func TestAssocValidation(t *testing.T) {
	if _, err := NewSparse(AssocConfig{Sets: 3, Ways: 2}); err == nil {
		t.Error("non-power-of-two sets accepted")
	}
	if _, err := NewStash(StashConfig{AssocConfig: AssocConfig{Sets: 4, Ways: 0}}); err == nil {
		t.Error("zero ways accepted")
	}
}

func TestDoubleAllocatePanics(t *testing.T) {
	for name, d := range directoriesUnderTest(t) {
		d.Allocate(9, nil)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: double Allocate did not panic", name)
				}
			}()
			d.Allocate(9, nil)
		}()
	}
}

// TestOccupancyNeverExceedsCapacity exercises random allocate/remove churn
// against every bounded organization.
func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	sparse, _ := NewSparse(AssocConfig{Sets: 8, Ways: 2, Policy: cache.LRU})
	stash, _ := NewStash(StashConfig{AssocConfig: AssocConfig{Sets: 8, Ways: 2}})
	cuckoo, _ := NewCuckoo(CuckooConfig{Ways: 2, SlotsPerWay: 8, Seed: 5})
	for name, d := range map[string]Directory{"sparse": sparse, "stash": stash, "cuckoo": cuckoo} {
		f := func(ops []uint16) bool {
			for _, op := range ops {
				b := mem.Block(op % 256)
				if d.Probe(b) != nil {
					if op%5 == 0 {
						d.Remove(b)
					}
					continue
				}
				res := d.Allocate(b, nil)
				switch res.Outcome {
				case AllocOK, AllocStashed:
					res.Entry.Sharers.Add(int(op) % 4)
					if op%2 == 0 {
						res.Entry.Owned = res.Entry.Private()
					}
				case AllocNeedsRecall:
					d.Remove(res.Victim.Block)
				}
				if d.OccupiedEntries() > d.Capacity() {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestAllocOutcomeString(t *testing.T) {
	for _, o := range []AllocOutcome{AllocOK, AllocStashed, AllocNeedsRecall, AllocBlocked} {
		if o.String() == "" {
			t.Fatal("empty outcome name")
		}
	}
}

func TestEntryString(t *testing.T) {
	e := &Entry{}
	if e.String() != "<invalid>" {
		t.Fatalf("invalid entry string = %q", e.String())
	}
	e.reset(0x40)
	e.Sharers.Add(1)
	e.Owned = true
	if s := e.String(); s == "" || s == "<invalid>" {
		t.Fatalf("entry string = %q", s)
	}
}
