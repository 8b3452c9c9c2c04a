package core

import (
	"slices"

	"repro/internal/mem"
)

// FullMap is the ideal, unbounded directory: one entry per tracked block,
// no conflicts, no evictions. It serves as the performance upper bound in
// the coverage-sweep experiments and as the correctness reference in the
// differential protocol tests.
//
//stash:tileowned
type FullMap struct {
	entries map[mem.Block]*Entry
	blocks  []mem.Block // ForEach's sorted keys, reused across calls

	st DirStats
}

var _ Directory = (*FullMap)(nil)

// NewFullMap returns an empty ideal directory.
func NewFullMap() *FullMap {
	return &FullMap{entries: make(map[mem.Block]*Entry)}
}

// Name implements Directory.
func (d *FullMap) Name() string { return "fullmap" }

// Capacity implements Directory; the full map is unbounded.
func (d *FullMap) Capacity() int { return 0 }

// Lookup implements Directory.
func (d *FullMap) Lookup(b mem.Block) *Entry {
	d.st.Lookups.Inc()
	if e, ok := d.entries[b]; ok {
		d.st.Hits.Inc()
		return e
	}
	d.st.Misses.Inc()
	return nil
}

// Probe implements Directory.
func (d *FullMap) Probe(b mem.Block) *Entry {
	return d.entries[b]
}

// Allocate implements Directory; it always succeeds.
func (d *FullMap) Allocate(b mem.Block, busy func(mem.Block) bool) AllocResult {
	if _, ok := d.entries[b]; ok {
		panic("core: fullmap Allocate for already-tracked block")
	}
	e := &Entry{}
	e.reset(b)
	d.entries[b] = e
	d.st.Allocations.Inc()
	return AllocResult{Outcome: AllocOK, Entry: e}
}

// Remove implements Directory.
func (d *FullMap) Remove(b mem.Block) {
	if e, ok := d.entries[b]; ok {
		e.valid = false
		delete(d.entries, b)
		d.st.Removals.Inc()
	}
}

// OccupiedEntries implements Directory.
func (d *FullMap) OccupiedEntries() int { return len(d.entries) }

// ForEach implements Directory; iteration is in ascending block order so
// audits are deterministic. Once its key buffer has grown, it allocates
// nothing.
func (d *FullMap) ForEach(fn func(*Entry)) {
	d.blocks = d.blocks[:0]
	//stash:ignore determinism keys are sorted before use
	for b := range d.entries {
		d.blocks = append(d.blocks, b)
	}
	slices.Sort(d.blocks)
	for _, b := range d.blocks {
		fn(d.entries[b])
	}
}

// Stats implements Directory.
func (d *FullMap) Stats() *DirStats { return &d.st }

// Reset implements Directory.
func (d *FullMap) Reset() {
	clear(d.entries)
	d.st = DirStats{}
}
