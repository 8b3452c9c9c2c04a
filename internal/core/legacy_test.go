package core

import "repro/internal/mem"

// legacyCuckoo is the original cuckoo slice, whose relocation search kept
// its visited set in a map keyed by slot pointer and ran even when no slot
// was free. It is kept as the reference implementation, unchanged but for
// its type names and the search bound, fixed at the old default of 16:
// TestCuckooMatchesLegacy replays identical Allocate/Remove/busy sequences
// through it and Cuckoo and requires identical results, slot contents and
// statistics.
type legacyCuckoo struct {
	cfg     CuckooConfig
	slots   []Entry // ways * slotsPerWay, way-major
	maxPath int
	seeds   []uint64
	st      DirStats

	frontier []legacyNode
	visited  map[*Entry]bool
}

type legacyNode struct {
	slot   *Entry
	parent int
}

func newLegacyCuckoo(cfg CuckooConfig) *legacyCuckoo {
	d := &legacyCuckoo{
		cfg:     cfg,
		slots:   make([]Entry, cfg.Ways*cfg.SlotsPerWay),
		maxPath: 16,
		seeds:   make([]uint64, cfg.Ways),
	}
	for i := range d.slots {
		d.slots[i].set = int32(i / cfg.SlotsPerWay)
		d.slots[i].way = int32(i % cfg.SlotsPerWay)
	}
	for w := range d.seeds {
		d.seeds[w] = splitmix64(uint64(cfg.Seed) + uint64(w)*0x9e3779b97f4a7c15 + 1)
	}
	return d
}

func (d *legacyCuckoo) slotFor(way int, b mem.Block) *Entry {
	h := splitmix64(uint64(b) ^ d.seeds[way])
	idx := int(h % uint64(d.cfg.SlotsPerWay))
	return &d.slots[way*d.cfg.SlotsPerWay+idx]
}

func (d *legacyCuckoo) Probe(b mem.Block) *Entry {
	for w := 0; w < d.cfg.Ways; w++ {
		e := d.slotFor(w, b)
		if e.valid && e.Block == b {
			return e
		}
	}
	return nil
}

func (d *legacyCuckoo) Allocate(b mem.Block, busy func(mem.Block) bool) AllocResult {
	if d.Probe(b) != nil {
		panic("core: cuckoo Allocate for already-tracked block")
	}
	// Free candidate slot.
	for w := 0; w < d.cfg.Ways; w++ {
		if e := d.slotFor(w, b); !e.valid {
			e.reset(b)
			d.st.Allocations.Inc()
			return AllocResult{Outcome: AllocOK, Entry: e}
		}
	}

	// Breadth-first search for a relocation path: nodes are slots, an edge
	// goes from a slot to the alternative slots of its occupant. Busy
	// occupants are immovable.
	frontier := d.frontier[:0]
	if d.visited == nil {
		d.visited = make(map[*Entry]bool)
	} else {
		clear(d.visited)
	}
	visited := d.visited
	for w := 0; w < d.cfg.Ways; w++ {
		s := d.slotFor(w, b)
		if !visited[s] {
			visited[s] = true
			frontier = append(frontier, legacyNode{slot: s, parent: -1})
		}
	}
	for i := 0; i < len(frontier) && len(frontier) < d.maxPath*d.cfg.Ways; i++ {
		cur := frontier[i]
		occ := cur.slot
		if !occ.valid {
			// Found a free slot: shift occupants along the path toward it.
			d.shiftPath(frontier, i)
			// The path root (one of b's candidate slots) is now free.
			root := i
			for frontier[root].parent != -1 {
				root = frontier[root].parent
			}
			e := frontier[root].slot
			d.frontier = frontier
			e.reset(b)
			d.st.Allocations.Inc()
			return AllocResult{Outcome: AllocOK, Entry: e}
		}
		if busy != nil && busy(occ.Block) {
			continue // immovable
		}
		for w := 0; w < d.cfg.Ways; w++ {
			alt := d.slotFor(w, occ.Block)
			if alt == occ || visited[alt] {
				continue
			}
			visited[alt] = true
			frontier = append(frontier, legacyNode{slot: alt, parent: i})
		}
	}

	d.frontier = frontier

	// No path: recall one of b's candidate occupants (LRU is meaningless
	// here; pick the first non-busy candidate deterministically).
	for w := 0; w < d.cfg.Ways; w++ {
		e := d.slotFor(w, b)
		if busy == nil || !busy(e.Block) {
			d.st.RecallEvictions.Inc()
			return AllocResult{Outcome: AllocNeedsRecall, Victim: e}
		}
	}
	d.st.AllocBlocked.Inc()
	return AllocResult{Outcome: AllocBlocked}
}

func (d *legacyCuckoo) shiftPath(frontier []legacyNode, end int) {
	for cur := end; frontier[cur].parent != -1; cur = frontier[cur].parent {
		dst := frontier[cur].slot
		src := frontier[frontier[cur].parent].slot
		// Move src's occupant into dst.
		dst.Block = src.Block
		dst.Sharers = src.Sharers
		dst.Owned = src.Owned
		dst.Overflowed = src.Overflowed
		dst.valid = true
		src.valid = false
		src.Sharers.Clear()
		src.Owned = false
		src.Overflowed = false
		d.st.Relocations.Inc()
	}
}

func (d *legacyCuckoo) Remove(b mem.Block) {
	for w := 0; w < d.cfg.Ways; w++ {
		e := d.slotFor(w, b)
		if e.valid && e.Block == b {
			e.valid = false
			e.Sharers.Clear()
			e.Owned = false
			e.Overflowed = false
			d.st.Removals.Inc()
			return
		}
	}
}
