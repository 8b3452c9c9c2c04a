package core

import "repro/internal/mem"

// StashConfig extends the set-associative geometry with the stash
// directory's policy knobs.
type StashConfig struct {
	AssocConfig
	// StashSingletonShared additionally allows stashing entries that track
	// a block cached by exactly one core in the Shared state (not just
	// Exclusive/Modified owners). The paper's "private blocks" are blocks
	// cached by exactly one core; this flag is the subject of the victim-
	// policy ablation experiment.
	StashSingletonShared bool
}

// Stash is the paper's directory: a sparse directory with a relaxed
// inclusion property. When a set fills, the replacement victim is chosen
// preferentially among entries tracking private blocks, and such a victim
// is dropped *silently* — the cached copy stays alive and becomes hidden.
// The caller (the directory controller in internal/coherence) must then set
// the hidden bit on the block's LLC line, which is what later redirects a
// directory miss into a discovery broadcast instead of a (wrong) "nobody
// has it" conclusion.
//
// Only when no stashable victim exists does the stash directory fall back
// to a conventional recall, so back-invalidations become rare instead of
// routine.
type Stash struct {
	cfg   StashConfig
	store *assocStore
	st    DirStats
	// stashableFn is the Stashable method bound once, so Allocate does not
	// materialize a method value per call.
	stashableFn func(*Entry) bool
}

var _ Directory = (*Stash)(nil)

// NewStash builds a stash directory.
func NewStash(cfg StashConfig) (*Stash, error) {
	store, err := newAssocStore(cfg.AssocConfig)
	if err != nil {
		return nil, err
	}
	d := &Stash{cfg: cfg, store: store}
	d.stashableFn = d.Stashable
	return d, nil
}

// Name implements Directory.
func (d *Stash) Name() string { return "stash" }

// Capacity implements Directory.
func (d *Stash) Capacity() int { return d.store.capacity() }

// Lookup implements Directory.
//
//stash:hotpath
func (d *Stash) Lookup(b mem.Block) *Entry {
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
func (d *Stash) Probe(b mem.Block) *Entry { return d.store.find(b) }

// Stashable reports whether entry e may be dropped without invalidation
// under this configuration: it must track a private block (exactly one
// sharer), and unless StashSingletonShared is set, that sharer must own the
// block (E/M).
//
//stash:hotpath
func (d *Stash) Stashable(e *Entry) bool {
	if !e.Private() {
		return false
	}
	return e.Owned || d.cfg.StashSingletonShared
}

// Allocate implements Directory. Victim preference: free slot, then the
// least-recently-used stashable entry (dropped silently), then the
// least-recently-used entry overall (recall).
//
//stash:hotpath
func (d *Stash) Allocate(b mem.Block, busy func(mem.Block) bool) AllocResult {
	if d.store.find(b) != nil {
		panic("core: stash Allocate for already-tracked block")
	}
	if e := d.store.freeSlot(b); e != nil {
		d.store.install(e, b)
		d.st.Allocations.Inc()
		return AllocResult{Outcome: AllocOK, Entry: e}
	}
	// First choice: silently drop a stashable (private) victim.
	if v := d.store.victim(b, busy, true, d.stashableFn); v != nil {
		stashed := Stashed{Block: v.Block, Owner: v.Sharers.Only()}
		v.valid = false
		v.Sharers.Clear()
		v.Owned = false
		d.store.install(v, b)
		d.st.StashEvictions.Inc()
		d.st.Allocations.Inc()
		return AllocResult{Outcome: AllocStashed, Entry: v, Stashed: stashed}
	}

	// Fall back to a conventional back-invalidating eviction.
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
func (d *Stash) Remove(b mem.Block) {
	if d.store.remove(b) {
		d.st.Removals.Inc()
	}
}

// OccupiedEntries implements Directory.
func (d *Stash) OccupiedEntries() int { return d.store.occupied() }

// ForEach implements Directory.
func (d *Stash) ForEach(fn func(*Entry)) { d.store.forEach(fn) }

// Stats implements Directory.
func (d *Stash) Stats() *DirStats { return &d.st }

// Reset implements Directory.
func (d *Stash) Reset() {
	d.store.reset()
	d.st = DirStats{}
}
