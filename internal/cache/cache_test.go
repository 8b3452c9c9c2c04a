package cache

import (
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

func TestLookupMissThenHit(t *testing.T) {
	c := mustCache(t, Config{Name: "t", Sets: 4, Ways: 2})
	if c.Lookup(5) != nil {
		t.Fatal("lookup in empty cache hit")
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
	if c.Stats().Hits.Value() != 1 || c.Stats().Misses.Value() != 1 {
		t.Fatal("hit/miss accounting wrong")
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
}

// TestNoAliasing: distinct resident blocks never collide within the
// structure — a lookup for one block never returns another's line.
func TestNoAliasing(t *testing.T) {
	c := mustCache(t, Config{Name: "t", Sets: 16, Ways: 4})
	f := func(raw []uint16) bool {
		c2 := mustCache(t, c.Config())
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
