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
	// Seed perturbs the hash functions.
	Seed int64
}

// searchSlotsPerWay bounds the relocation search: it stops once it has
// enqueued searchSlotsPerWay×Ways slots and falls back to a recall. The
// bound is on slots enqueued, not on path length, and slots enqueued but
// not yet examined when it is reached are never examined, free or not.
const searchSlotsPerWay = 16

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
	cfg   CuckooConfig
	slots []Entry // ways * slotsPerWay, way-major
	seeds []uint64
	used  int // valid slots
	st    DirStats

	// Relocation-search scratch, reused across Allocate calls. A slot i is
	// in the current search's visited set when seen[i] == gen, so starting
	// a search only bumps gen.
	frontier []cuckooNode
	seen     []uint32
	gen      uint32
}

var _ Directory = (*Cuckoo)(nil)

// NewCuckoo builds a cuckoo directory.
func NewCuckoo(cfg CuckooConfig) (*Cuckoo, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Ways * cfg.SlotsPerWay
	d := &Cuckoo{
		cfg:   cfg,
		slots: make([]Entry, n),
		seeds: make([]uint64, cfg.Ways),
		// Expanding the last node the bound admits enqueues at most
		// Ways-1 more slots.
		frontier: make([]cuckooNode, 0, (searchSlotsPerWay+1)*cfg.Ways),
		seen:     make([]uint32, n),
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

// slotFor returns the index in slots of the slot block b maps to in
// sub-table way.
//
//stash:hotpath
func (d *Cuckoo) slotFor(way int, b mem.Block) int {
	h := splitmix64(uint64(b) ^ d.seeds[way])
	return way*d.cfg.SlotsPerWay + int(h%uint64(d.cfg.SlotsPerWay))
}

// Name implements Directory.
func (d *Cuckoo) Name() string { return "cuckoo" }

// Capacity implements Directory.
func (d *Cuckoo) Capacity() int { return len(d.slots) }

// Lookup implements Directory.
//
//stash:hotpath
func (d *Cuckoo) Lookup(b mem.Block) *Entry {
	d.st.Lookups.Inc()
	if e := d.Probe(b); e != nil {
		d.st.Hits.Inc()
		return e
	}
	d.st.Misses.Inc()
	return nil
}

// Probe implements Directory.
//
//stash:hotpath
func (d *Cuckoo) Probe(b mem.Block) *Entry {
	for w := 0; w < d.cfg.Ways; w++ {
		e := &d.slots[d.slotFor(w, b)]
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
//
//stash:hotpath
func (d *Cuckoo) Allocate(b mem.Block, busy func(mem.Block) bool) AllocResult {
	if d.Probe(b) != nil {
		panic("core: cuckoo Allocate for already-tracked block")
	}
	// Free candidate slot.
	for w := 0; w < d.cfg.Ways; w++ {
		if e := &d.slots[d.slotFor(w, b)]; !e.valid {
			e.reset(b)
			d.used++
			d.st.Allocations.Inc()
			return AllocResult{Outcome: AllocOK, Entry: e}
		}
	}
	// A relocation path ends at a free slot, so on a full slice no search
	// can succeed. busy is a pure lookup, so skipping the calls the search
	// would make changes nothing.
	if d.used < len(d.slots) {
		if e := d.relocate(b, busy); e != nil {
			e.reset(b)
			d.used++
			d.st.Allocations.Inc()
			return AllocResult{Outcome: AllocOK, Entry: e}
		}
	}

	// No path: recall one of b's candidate occupants (LRU is meaningless
	// here; pick the first non-busy candidate deterministically).
	for w := 0; w < d.cfg.Ways; w++ {
		e := &d.slots[d.slotFor(w, b)]
		if busy == nil || !busy(e.Block) {
			d.st.RecallEvictions.Inc()
			return AllocResult{Outcome: AllocNeedsRecall, Victim: e}
		}
	}
	d.st.AllocBlocked.Inc()
	return AllocResult{Outcome: AllocBlocked}
}

// cuckooNode is one step of a relocation-path search: a slot index plus the
// index in the frontier of the node it was reached from (-1 for a root).
type cuckooNode struct {
	slot, parent int32
}

// relocate searches breadth-first for a relocation path from one of b's
// candidate slots to a free slot: nodes are slots, and an edge goes from a
// slot to the alternative slots of its occupant. Busy occupants are
// immovable. On success it shifts the occupants along the path and returns
// the path's root, the candidate slot it freed; otherwise it returns nil.
//
//stash:hotpath
func (d *Cuckoo) relocate(b mem.Block, busy func(mem.Block) bool) *Entry {
	d.gen++
	if d.gen == 0 {
		// Wrapped: stamps left by earlier searches would read as visited.
		clear(d.seen)
		d.gen = 1
	}
	// b's candidate slots lie in distinct sub-tables, so all are roots.
	d.frontier = d.frontier[:0]
	for w := 0; w < d.cfg.Ways; w++ {
		s := d.slotFor(w, b)
		d.seen[s] = d.gen
		d.frontier = append(d.frontier, cuckooNode{slot: int32(s), parent: -1})
	}
	for i := 0; i < len(d.frontier) && len(d.frontier) < searchSlotsPerWay*d.cfg.Ways; i++ {
		occ := &d.slots[d.frontier[i].slot]
		if !occ.valid {
			return d.shiftPath(i)
		}
		if busy != nil && busy(occ.Block) {
			continue // immovable
		}
		// The occupant's own slot is among its alternatives, and is
		// already marked.
		for w := 0; w < d.cfg.Ways; w++ {
			alt := d.slotFor(w, occ.Block)
			if d.seen[alt] == d.gen {
				continue
			}
			d.seen[alt] = d.gen
			d.frontier = append(d.frontier, cuckooNode{slot: int32(alt), parent: int32(i)})
		}
	}
	return nil
}

// shiftPath moves each occupant one step toward the free terminal slot at
// frontier[end], following parent links from the terminal back to a root,
// and returns that root, now free.
//
//stash:hotpath
func (d *Cuckoo) shiftPath(end int) *Entry {
	cur := end
	for d.frontier[cur].parent != -1 {
		prev := int(d.frontier[cur].parent)
		dst := &d.slots[d.frontier[cur].slot]
		src := &d.slots[d.frontier[prev].slot]
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
		cur = prev
	}
	return &d.slots[d.frontier[cur].slot]
}

// Remove implements Directory.
//
//stash:hotpath
func (d *Cuckoo) Remove(b mem.Block) {
	if e := d.Probe(b); e != nil {
		e.valid = false
		e.Sharers.Clear()
		e.Owned = false
		e.Overflowed = false
		d.used--
		d.st.Removals.Inc()
	}
}

// OccupiedEntries implements Directory.
func (d *Cuckoo) OccupiedEntries() int { return d.used }

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
