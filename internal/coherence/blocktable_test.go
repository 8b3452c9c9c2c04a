package coherence

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/mem"
)

// TestBlockTableAgainstMap drives randomized insert/overwrite/delete/lookup
// traffic through blockTable and a reference map and demands they agree
// after every operation batch. Small table + heavy churn exercises probe
// chains, backward-shift deletion and growth.
func TestBlockTableAgainstMap(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tab := newBlockTable[int](4)
		ref := make(map[mem.Block]int)
		// Keys cluster into few home slots to force long probe chains.
		key := func() mem.Block { return mem.Block(rng.Intn(64) * 8) }
		for op := 0; op < 20000; op++ {
			b := key()
			switch rng.Intn(3) {
			case 0:
				v := rng.Int()
				tab.put(b, v)
				ref[b] = v
			case 1:
				tab.del(b)
				delete(ref, b)
			case 2:
				got, ok := tab.get(b)
				want, wok := ref[b]
				if ok != wok || (ok && got != want) {
					t.Fatalf("seed %d op %d: get(%#x) = (%d,%v), want (%d,%v)", seed, op, uint64(b), got, ok, want, wok)
				}
			}
			if tab.len() != len(ref) {
				t.Fatalf("seed %d op %d: len %d, want %d", seed, op, tab.len(), len(ref))
			}
		}
		// Full sweep: every reference entry must be visible, and forEach
		// must visit exactly the live set.
		seen := make(map[mem.Block]int)
		tab.forEach(func(b mem.Block, v int) { seen[b] = v })
		if len(seen) != len(ref) {
			t.Fatalf("seed %d: forEach visited %d entries, want %d", seed, len(seen), len(ref))
		}
		for b, want := range ref {
			if got, ok := seen[b]; !ok || got != want {
				t.Fatalf("seed %d: forEach missing %#x", seed, uint64(b))
			}
			if !tab.has(b) {
				t.Fatalf("seed %d: has(%#x) = false for live key", seed, uint64(b))
			}
		}
	}
}

// TestBlockTableZeroKey checks that block 0 (a legal address) round-trips:
// presence is tracked by the used bits, not by a sentinel key.
func TestBlockTableZeroKey(t *testing.T) {
	tab := newBlockTable[string](2)
	if _, ok := tab.get(0); ok {
		t.Fatal("empty table claims to hold block 0")
	}
	tab.put(0, "zero")
	if v, ok := tab.get(0); !ok || v != "zero" {
		t.Fatalf("get(0) = (%q,%v), want (zero,true)", v, ok)
	}
	tab.del(0)
	if _, ok := tab.get(0); ok {
		t.Fatal("deleted block 0 still present")
	}
}

// TestBlockTableReset checks that a reset table, grown or never allocated,
// behaves exactly as a new one: the same operations leave the same entries
// in the same slot order.
func TestBlockTableReset(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		used := newBlockTable[int](4)
		for op := 0; op < 500; op++ {
			used.put(mem.Block(rng.Intn(1000)), op)
		}
		used.reset()
		idle := newBlockTable[int](4)
		idle.reset()
		fresh := newBlockTable[int](4)
		for op := 0; op < 2000; op++ {
			b := mem.Block(rng.Intn(48))
			for _, tab := range []*blockTable[int]{used, idle, fresh} {
				if op%3 == 2 {
					tab.del(b)
				} else {
					tab.put(b, op)
				}
			}
		}
		order := func(tab *blockTable[int]) (out []mem.Block) {
			tab.forEach(func(b mem.Block, _ int) { out = append(out, b) })
			return out
		}
		want := order(fresh)
		for name, tab := range map[string]*blockTable[int]{"grown": used, "idle": idle} {
			if got := order(tab); !slices.Equal(got, want) {
				t.Fatalf("seed %d: reset %s table holds %v, want %v", seed, name, got, want)
			}
		}
	}
}
