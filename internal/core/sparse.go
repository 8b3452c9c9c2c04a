package core

import "repro/internal/mem"

// Sparse is the conventional set-associative sparse directory the paper
// uses as its baseline. It enforces strict inclusion: every block cached in
// any private cache has a directory entry, so evicting an entry on a set
// conflict forces the caller to recall (back-invalidate) every tracked
// copy — the "coverage misses" that make under-provisioned sparse
// directories slow.
type Sparse struct {
	store *assocStore
	st    DirStats
	// stashable, non-nil only in a stash directory, picks the entries
	// Allocate may drop silently.
	stashable func(*Entry) bool
}

var _ Directory = (*Sparse)(nil)

// NewSparse builds a sparse directory with the given geometry.
func NewSparse(cfg AssocConfig) (*Sparse, error) {
	store, err := newAssocStore(cfg)
	if err != nil {
		return nil, err
	}
	return &Sparse{store: store}, nil
}

// Name implements Directory.
func (d *Sparse) Name() string { return "sparse" }

// Capacity implements Directory.
func (d *Sparse) Capacity() int { return d.store.capacity() }

// Lookup implements Directory.
//
//stash:hotpath
func (d *Sparse) Lookup(b mem.Block) *Entry {
	d.st.Lookups.Inc()
	if e := d.store.find(b); e != nil {
		d.st.Hits.Inc()
		d.store.touch(e)
		return e
	}
	d.st.Misses.Inc()
	return nil
}

// Probe implements Directory.
//
//stash:hotpath
func (d *Sparse) Probe(b mem.Block) *Entry { return d.store.find(b) }

// Allocate implements Directory. Victim preference: a free slot; in a
// stash directory, the least-recently-used stashable entry, dropped
// silently; then the least-recently-used entry overall, whose recall the
// caller performs — strict inclusion forbids anything cheaper.
//
//stash:hotpath
func (d *Sparse) Allocate(b mem.Block, busy func(mem.Block) bool) AllocResult {
	if d.store.find(b) != nil {
		panic("core: Allocate for already-tracked block")
	}
	if e := d.store.freeSlot(b); e != nil {
		d.store.install(e, b)
		d.st.Allocations.Inc()
		return AllocResult{Outcome: AllocOK, Entry: e}
	}
	if d.stashable != nil {
		if v := d.store.victim(b, busy, true, d.stashable); v != nil {
			stashed := Stashed{Block: v.Block, Owner: v.Sharers.Only()}
			v.valid = false
			v.Sharers.Clear()
			v.Owned = false
			d.store.install(v, b)
			d.st.StashEvictions.Inc()
			d.st.Allocations.Inc()
			return AllocResult{Outcome: AllocStashed, Entry: v, Stashed: stashed}
		}
	}
	v := d.store.victim(b, busy, false, nil)
	if v == nil {
		d.st.AllocBlocked.Inc()
		return AllocResult{Outcome: AllocBlocked}
	}
	d.st.RecallEvictions.Inc()
	return AllocResult{Outcome: AllocNeedsRecall, Victim: v}
}

// Remove implements Directory.
//
//stash:hotpath
func (d *Sparse) Remove(b mem.Block) {
	if d.store.remove(b) {
		d.st.Removals.Inc()
	}
}

// OccupiedEntries implements Directory.
func (d *Sparse) OccupiedEntries() int { return d.store.occupied() }

// ForEach implements Directory.
func (d *Sparse) ForEach(fn func(*Entry)) { d.store.forEach(fn) }

// Stats implements Directory.
func (d *Sparse) Stats() *DirStats { return &d.st }

// Reset implements Directory.
func (d *Sparse) Reset() {
	d.store.reset()
	d.st = DirStats{}
}
