package core

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
	// Sparse supplies every method but Name and Stashable; its Allocate
	// takes the stash step because NewStash sets its stashable.
	Sparse
	cfg StashConfig
}

var _ Directory = (*Stash)(nil)

// NewStash builds a stash directory.
func NewStash(cfg StashConfig) (*Stash, error) {
	store, err := newAssocStore(cfg.AssocConfig)
	if err != nil {
		return nil, err
	}
	d := &Stash{Sparse: Sparse{store: store}, cfg: cfg}
	d.stashable = d.Stashable
	return d, nil
}

// Name implements Directory.
func (d *Stash) Name() string { return "stash" }

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
