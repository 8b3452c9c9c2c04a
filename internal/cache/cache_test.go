package cache

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func mustCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{Name: "a", Sets: 0, Ways: 1},
		{Name: "b", Sets: 3, Ways: 1},
		{Name: "c", Sets: 4, Ways: 0},
		{Name: "d", Sets: -4, Ways: 2},
	}
	for _, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("New(%+v) succeeded, want error", cfg)
		}
	}
	if _, err := New(Config{Name: "ok", Sets: 8, Ways: 2}); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestLookupMissThenHit runs on a one-set cache, filled at New, and on
// caches whose sets get storage on first fill. On those, a Lookup or Probe
// of a never-filled set misses (still counted) without allocating and
// without giving the set storage.
func TestLookupMissThenHit(t *testing.T) {
	for _, sets := range []int{1, 4, 64} {
		c := mustCache(t, Config{Name: "t", Sets: sets, Ways: 2})
		if c.Lookup(5) != nil {
			t.Fatal("lookup in empty cache hit")
		}
		misses := int64(1)
		if sets > 1 {
			allocs := testing.AllocsPerRun(100, func() {
				if c.Lookup(6) != nil || c.Probe(7) != nil {
					t.Fatal("never-filled set hit")
				}
			})
			if allocs != 0 || c.sets.used != 0 || len(c.sets.chunks) != 0 {
				t.Fatalf("misses on never-filled sets: %v allocs, %d sets filled, %d chunks; want none", allocs, c.sets.used, len(c.sets.chunks))
			}
			misses += 101 // AllocsPerRun's warm-up run and its 100 runs
		}
		v := c.Victim(5, nil)
		if v == nil || v.Valid() {
			t.Fatal("no invalid victim available in empty cache")
		}
		c.Install(v, 5, mem.Shared, 99)
		ln := c.Lookup(5)
		if ln == nil || ln.Block != 5 || ln.State != mem.Shared || ln.Data != 99 {
			t.Fatalf("lookup after install: %+v", ln)
		}
		if c.Stats().Hits.Value() != 1 || c.Stats().Misses.Value() != misses {
			t.Fatalf("sets=%d: %d hits and %d misses counted, want 1 and %d", sets, c.Stats().Hits.Value(), c.Stats().Misses.Value(), misses)
		}
	}
}

func TestProbeDoesNotCount(t *testing.T) {
	c := mustCache(t, Config{Name: "t", Sets: 4, Ways: 2})
	v := c.Victim(1, nil)
	c.Install(v, 1, mem.Exclusive, 0)
	c.Probe(1)
	c.Probe(2)
	if c.Stats().Hits.Value() != 0 || c.Stats().Misses.Value() != 0 {
		t.Fatal("Probe affected hit/miss counters")
	}
}

func TestSetIndexing(t *testing.T) {
	c := mustCache(t, Config{Name: "t", Sets: 8, Ways: 1})
	if c.SetIndex(0) != 0 || c.SetIndex(7) != 7 || c.SetIndex(8) != 0 || c.SetIndex(13) != 5 {
		t.Fatal("SetIndex wrong without shift")
	}
	cs := mustCache(t, Config{Name: "t", Sets: 8, Ways: 1, IndexShift: 4})
	if cs.SetIndex(0x10) != 1 || cs.SetIndex(0x15) != 1 || cs.SetIndex(0x80) != 0 {
		t.Fatal("SetIndex wrong with shift")
	}
}

func TestInstallWrongSetPanics(t *testing.T) {
	c := mustCache(t, Config{Name: "t", Sets: 4, Ways: 1})
	v := c.Victim(0, nil) // set 0
	defer func() {
		if recover() == nil {
			t.Fatal("installing into wrong set did not panic")
		}
	}()
	c.Install(v, 1, mem.Shared, 0) // block 1 maps to set 1
}

func TestLRUEviction(t *testing.T) {
	// One set, 2 ways: fill with A, B; touch A; C must evict B.
	c := mustCache(t, Config{Name: "t", Sets: 1, Ways: 2})
	for _, b := range []mem.Block{10, 20} {
		c.Install(c.Victim(b, nil), b, mem.Shared, 0)
	}
	c.Lookup(10) // A is now MRU
	v := c.Victim(30, nil)
	if v.Block != 20 {
		t.Fatalf("LRU victim = %d, want 20", v.Block)
	}
	c.Install(v, 30, mem.Shared, 0)
	if c.Probe(20) != nil {
		t.Fatal("evicted block still present")
	}
	if c.Probe(10) == nil || c.Probe(30) == nil {
		t.Fatal("resident blocks missing")
	}
}

func TestVictimSkip(t *testing.T) {
	c := mustCache(t, Config{Name: "t", Sets: 1, Ways: 2})
	for _, b := range []mem.Block{1, 2} {
		c.Install(c.Victim(b, nil), b, mem.Shared, 0)
	}
	v := c.Victim(3, func(l *Line) bool { return l.Block == 1 })
	if v == nil || v.Block != 2 {
		t.Fatalf("skip ignored: got %+v", v)
	}
	v = c.Victim(3, func(l *Line) bool { return true })
	if v != nil {
		t.Fatal("all-excluded set should yield nil victim")
	}
}

func TestEvict(t *testing.T) {
	c := mustCache(t, Config{Name: "t", Sets: 2, Ways: 1})
	c.Install(c.Victim(4, nil), 4, mem.Modified, 7)
	ln := c.Probe(4)
	c.Evict(ln)
	if ln.Valid() || c.Probe(4) != nil {
		t.Fatal("line still valid after Evict")
	}
	if c.Stats().Evictions.Value() != 1 {
		t.Fatal("eviction not counted")
	}
	// Evicting an invalid line is a no-op for the counter.
	c.Evict(ln)
	if c.Stats().Evictions.Value() != 1 {
		t.Fatal("invalid-line evict was counted")
	}
}

// TestOccupiedLinesAndForEach also fills a cache of many chunks in a
// random set order: ForEach and ForEachSlot must still walk it set-major,
// and ForEachSlot must show the never-filled sets as invalid lines.
func TestOccupiedLinesAndForEach(t *testing.T) {
	c := mustCache(t, Config{Name: "t", Sets: 4, Ways: 2})
	blocks := []mem.Block{0, 1, 2, 5}
	for _, b := range blocks {
		c.Install(c.Victim(b, nil), b, mem.Shared, 0)
	}
	if got := c.OccupiedLines(); got != len(blocks) {
		t.Fatalf("OccupiedLines = %d, want %d", got, len(blocks))
	}
	seen := map[mem.Block]bool{}
	c.ForEach(func(l *Line) { seen[l.Block] = true })
	for _, b := range blocks {
		if !seen[b] {
			t.Fatalf("ForEach missed block %d", b)
		}
	}

	const sets, ways = 256, 2
	big := mustCache(t, Config{Name: "t", Sets: sets, Ways: ways})
	rng := rand.New(rand.NewSource(1))
	filled := map[int]bool{}
	for _, set := range rng.Perm(sets)[:100] {
		filled[set] = true
		for w := 0; w < ways; w++ {
			b := mem.Block(set + w*sets)
			big.Install(big.Victim(b, nil), b, mem.Shared, uint64(b))
		}
	}
	var order []mem.Block
	big.ForEach(func(l *Line) { order = append(order, l.Block) })
	if len(order) != 2*len(filled) || big.OccupiedLines() != len(order) {
		t.Fatalf("ForEach visited %d lines, OccupiedLines %d; want %d", len(order), big.OccupiedLines(), 2*len(filled))
	}
	for i := 1; i < len(order); i++ {
		if big.SetIndex(order[i]) < big.SetIndex(order[i-1]) {
			t.Fatalf("ForEach visits set %d after set %d: not set-major", big.SetIndex(order[i]), big.SetIndex(order[i-1]))
		}
	}
	next := 0
	big.ForEachSlot(func(idx int, l *Line) {
		set := idx / ways
		switch {
		case idx != next:
			t.Fatalf("ForEachSlot passed slot %d, want %d", idx, next)
		case filled[set] && (!l.Valid() || big.SetIndex(l.Block) != set):
			t.Fatalf("ForEachSlot slot %d of filled set %d shows %+v", idx, set, *l)
		case !filled[set] && *l != (Line{}):
			t.Fatalf("ForEachSlot slot %d of never-filled set %d shows %+v, want an invalid zero line", idx, set, *l)
		}
		next++
	})
	if next != sets*ways {
		t.Fatalf("ForEachSlot passed %d slots, want %d", next, sets*ways)
	}
}

// TestLinePointersStable: a *Line that Victim or Probe returned stays the
// same way of the same set while other sets are first filled, since
// controllers hold line pointers across events; growing the cache must
// never move a line.
func TestLinePointersStable(t *testing.T) {
	const sets = 1024
	c := mustCache(t, Config{Name: "t", Sets: sets, Ways: 4})
	c.Install(c.Victim(3, nil), 3, mem.Shared, 30)
	held := c.Probe(3)
	reserved := c.Victim(5, nil) // an invalid way held for an in-flight fill
	for set := 100; set < 200; set++ {
		b := mem.Block(set)
		c.Install(c.Victim(b, nil), b, mem.Shared, 0)
	}
	if got := c.Probe(3); got != held || held.Data != 30 {
		t.Fatalf("Probe(3) = %p (%+v) after 100 sets filled, want the held line %p", got, got, held)
	}
	if set, way := c.Locate(held); set != 3 || way != 0 {
		t.Fatalf("held line is now at (%d, %d), want (3, 0)", set, way)
	}
	if got := c.Victim(5, nil); got != reserved {
		t.Fatalf("Victim(5) = %p after 100 sets filled, want the reserved way %p", got, reserved)
	}
	c.Install(reserved, 5, mem.Exclusive, 50)
	if c.Probe(5) != reserved {
		t.Fatal("the reserved way did not take its fill")
	}
}

// TestResetMatchesNew: for every policy, a cache filled, reset and then
// driven in another set order behaves as a fresh one driven the same way:
// the same hits, victims (by set and way), statistics and slot layout.
func TestResetMatchesNew(t *testing.T) {
	drive := func(c *Cache, seed int64, record func(string, ...any)) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 3000; i++ {
			b := mem.Block(rng.Intn(64 * 6)) // 64 sets, 6 blocks each over 4 ways
			if c.Lookup(b) != nil {
				record("hit %d", b)
				continue
			}
			v := c.Victim(b, nil)
			set, way := c.Locate(v)
			record("miss %d victim (%d, %d) valid %v", b, set, way, v.Valid())
			c.Install(v, b, mem.Shared, uint64(i))
		}
		st := c.Stats()
		record("stats %d %d %d %d", st.Hits.Value(), st.Misses.Value(), st.Installs.Value(), st.Evictions.Value())
		c.ForEachSlot(func(idx int, l *Line) { record("slot %d %+v", idx, *l) })
	}
	for _, pol := range []PolicyKind{LRU, TreePLRU, NRU, Random} {
		cfg := Config{Name: "t", Sets: 64, Ways: 4, Policy: pol, Seed: 9}
		reset := mustCache(t, cfg)
		drive(reset, 1, func(string, ...any) {})
		reset.Reset()
		var got, want []string
		drive(reset, 2, func(f string, a ...any) { got = append(got, fmt.Sprintf(f, a...)) })
		drive(mustCache(t, cfg), 2, func(f string, a ...any) { want = append(want, fmt.Sprintf(f, a...)) })
		if !reflect.DeepEqual(got, want) {
			for i := range want {
				if i >= len(got) || got[i] != want[i] {
					t.Fatalf("%v: after Reset, step %d reads %q; a fresh cache reads %q", pol, i, got[min(i, len(got)-1)], want[i])
				}
			}
			t.Fatalf("%v: after Reset the cache recorded %d steps, a fresh one %d", pol, len(got), len(want))
		}
	}
}

// TestNoAliasing: distinct resident blocks never collide within the
// structure — a lookup for one block never returns another's line.
func TestNoAliasing(t *testing.T) {
	cfg := Config{Name: "t", Sets: 16, Ways: 4}
	f := func(raw []uint16) bool {
		c2 := mustCache(t, cfg)
		for _, r := range raw {
			b := mem.Block(r)
			if c2.Probe(b) != nil {
				continue
			}
			v := c2.Victim(b, nil)
			if v == nil {
				continue
			}
			c2.Install(v, b, mem.Exclusive, uint64(b))
		}
		ok := true
		c2.ForEach(func(l *Line) {
			if l.Data != uint64(l.Block) {
				ok = false
			}
			got := c2.Probe(l.Block)
			if got != l {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestCapacityNeverExceeded: install churn never grows occupancy beyond
// sets*ways, for every policy.
func TestCapacityNeverExceeded(t *testing.T) {
	for _, pol := range []PolicyKind{LRU, TreePLRU, NRU, Random} {
		c := mustCache(t, Config{Name: "t", Sets: 4, Ways: 4, Policy: pol, Seed: 1})
		for i := 0; i < 1000; i++ {
			b := mem.Block(i * 7 % 97)
			if c.Probe(b) != nil {
				continue
			}
			v := c.Victim(b, nil)
			c.Install(v, b, mem.Shared, 0)
		}
		if c.OccupiedLines() > c.Capacity() {
			t.Fatalf("%v: occupancy %d > capacity %d", pol, c.OccupiedLines(), c.Capacity())
		}
	}
}

// TestLineSize pins the tag line at 24 bytes: the LLC of a 256-core
// machine holds over half a million of them, so every byte added here is
// half a megabyte per build.
func TestLineSize(t *testing.T) {
	if got := reflect.TypeOf(Line{}).Size(); got != 24 {
		t.Fatalf("Line is %d bytes, want 24", got)
	}
}

// TestCacheSize pins the Cache struct at 160 bytes or fewer. Every tag
// array of the model checker's root world is one, and that world's bytes
// sit just under the Go runtime's minimum heap goal (internal/mcheck's
// TestRootWorldBytes): a Cache padded to 264 bytes crossed it.
func TestCacheSize(t *testing.T) {
	if got := reflect.TypeOf(Cache{}).Size(); got > 160 {
		t.Fatalf("Cache is %d bytes, want at most 160", got)
	}
}

// TestForeignLinePanics: a line of another cache, even one of the same
// shape whose slot of the same index is valid, is never taken for one of
// this cache's ways.
func TestForeignLinePanics(t *testing.T) {
	cfg := Config{Name: "t", Sets: 4, Ways: 2}
	c, other := mustCache(t, cfg), mustCache(t, cfg)
	c.Install(c.Victim(5, nil), 5, mem.Shared, 0)
	other.Install(other.Victim(5, nil), 5, mem.Shared, 0)
	foreign := other.Probe(5)
	for name, use := range map[string]func(){
		"Install": func() { c.Install(foreign, 5, mem.Exclusive, 0) },
		"Touch":   func() { c.Touch(foreign) },
		"Locate":  func() { c.Locate(foreign) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with another cache's line did not panic", name)
				}
			}()
			use()
		}()
	}
}

// TestLocate: Locate names a line's (set, way) whether the line holds a
// block or is an invalid way reserved for an in-flight fill.
func TestLocate(t *testing.T) {
	c := mustCache(t, Config{Name: "t", Sets: 4, Ways: 2})
	c.Install(c.Victim(6, nil), 6, mem.Shared, 0) // set 2, way 0
	c.Install(c.Victim(2, nil), 2, mem.Shared, 0) // set 2, way 1
	if set, way := c.Locate(c.Probe(2)); set != 2 || way != 1 {
		t.Fatalf("Locate(valid line of block 2) = (%d, %d), want (2, 1)", set, way)
	}
	reserved := c.Victim(3, nil) // set 3, way 0, still invalid
	if reserved == nil || reserved.Valid() {
		t.Fatalf("Victim(3) = %+v, want an invalid way", reserved)
	}
	if set, way := c.Locate(reserved); set != 3 || way != 0 {
		t.Fatalf("Locate(invalid reserved way) = (%d, %d), want (3, 0)", set, way)
	}
}
