package core

import (
	"fmt"

	"repro/internal/mem"
)

// CuckooConfig describes a d-ary cuckoo directory slice.
type CuckooConfig struct {
	// Ways is the number of hash functions / sub-tables (d). The Cuckoo
	// Directory paper uses 4.
	Ways int
	// SlotsPerWay is the size of each sub-table; total capacity is
	// Ways*SlotsPerWay.
	SlotsPerWay int
	// MaxPathLen bounds the relocation-path search before falling back to
	// a recall eviction. 0 means the default (16).
	MaxPathLen int
	// Seed perturbs the hash functions.
	Seed int64
}

// Validate checks the geometry.
func (c CuckooConfig) Validate() error {
	if c.Ways < 2 {
		return fmt.Errorf("core: cuckoo ways must be >= 2, got %d", c.Ways)
	}
	if c.SlotsPerWay < 1 {
		return fmt.Errorf("core: cuckoo slots-per-way must be >= 1, got %d", c.SlotsPerWay)
	}
	return nil
}

// Cuckoo is a d-ary cuckoo-hashed directory in the style of the Cuckoo
// Directory (Ferdman et al., HPCA 2011): each block hashes to one slot in
// each of d sub-tables, and insertions relocate existing entries along a
// cuckoo path to make room, which removes set-conflict evictions almost
// entirely at high occupancy. It still enforces strict inclusion — when no
// relocation path exists the victim must be recalled — so it isolates how
// much of Stash's benefit comes from conflict avoidance versus from
// relaxed inclusion.
type Cuckoo struct {
	cfg     CuckooConfig
	slots   []Entry // ways * slotsPerWay, way-major
	maxPath int
	seeds   []uint64
	st      DirStats

	// Relocation-search scratch, reused across Allocate calls so conflict
	// handling does not rebuild its frontier and visited set from nothing.
	frontier []cuckooNode
	visited  map[*Entry]bool
}

var _ Directory = (*Cuckoo)(nil)

// NewCuckoo builds a cuckoo directory.
func NewCuckoo(cfg CuckooConfig) (*Cuckoo, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	maxPath := cfg.MaxPathLen
	if maxPath == 0 {
		maxPath = 16
	}
	d := &Cuckoo{
		cfg:     cfg,
		slots:   make([]Entry, cfg.Ways*cfg.SlotsPerWay),
		maxPath: maxPath,
		seeds:   make([]uint64, cfg.Ways),
	}
	for i := range d.slots {
		d.slots[i].set = int32(i / cfg.SlotsPerWay) // sub-table index
		d.slots[i].way = int32(i % cfg.SlotsPerWay) // slot within sub-table
	}
	for w := range d.seeds {
		d.seeds[w] = splitmix64(uint64(cfg.Seed) + uint64(w)*0x9e3779b97f4a7c15 + 1)
	}
	return d, nil
}

// splitmix64 is the standard 64-bit finalizing mixer; deterministic and
// well distributed, which is all a simulated hash needs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// slotFor returns the slot block b maps to in sub-table way.
func (d *Cuckoo) slotFor(way int, b mem.Block) *Entry {
	h := splitmix64(uint64(b) ^ d.seeds[way])
	idx := int(h % uint64(d.cfg.SlotsPerWay))
	return &d.slots[way*d.cfg.SlotsPerWay+idx]
}

// Name implements Directory.
func (d *Cuckoo) Name() string { return "cuckoo" }

// Capacity implements Directory.
func (d *Cuckoo) Capacity() int { return len(d.slots) }

// Lookup implements Directory.
func (d *Cuckoo) Lookup(b mem.Block) *Entry {
	d.st.Lookups.Inc()
	for w := 0; w < d.cfg.Ways; w++ {
		e := d.slotFor(w, b)
		if e.valid && e.Block == b {
			d.st.Hits.Inc()
			return e
		}
	}
	d.st.Misses.Inc()
	return nil
}

// Probe implements Directory.
func (d *Cuckoo) Probe(b mem.Block) *Entry {
	for w := 0; w < d.cfg.Ways; w++ {
		e := d.slotFor(w, b)
		if e.valid && e.Block == b {
			return e
		}
	}
	return nil
}

// Allocate implements Directory. It tries, in order: a free candidate
// slot; a bounded breadth-first relocation path ending at a free slot
// (performed immediately, counting one relocation per moved entry); and
// finally a recall of a non-busy candidate occupant.
//
// Entry pointers are stable only until the next Allocate, because
// relocation moves entry contents between slots.
func (d *Cuckoo) Allocate(b mem.Block, busy func(mem.Block) bool) AllocResult {
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
			frontier = append(frontier, cuckooNode{slot: s, parent: -1})
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
			frontier = append(frontier, cuckooNode{slot: alt, parent: i})
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

// cuckooNode is one step of a relocation-path search: a slot plus the index
// of the node it was reached from.
type cuckooNode struct {
	slot   *Entry
	parent int
}

// shiftPath moves each occupant one step toward the free terminal slot at
// frontier[end], following parent links from the terminal back to a root.
func (d *Cuckoo) shiftPath(frontier []cuckooNode, end int) {
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

// Remove implements Directory.
func (d *Cuckoo) Remove(b mem.Block) {
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

// OccupiedEntries implements Directory.
func (d *Cuckoo) OccupiedEntries() int {
	n := 0
	for i := range d.slots {
		if d.slots[i].valid {
			n++
		}
	}
	return n
}

// ForEach implements Directory.
func (d *Cuckoo) ForEach(fn func(*Entry)) {
	for i := range d.slots {
		if d.slots[i].valid {
			fn(&d.slots[i])
		}
	}
}

// Stats implements Directory.
func (d *Cuckoo) Stats() *DirStats { return &d.st }
