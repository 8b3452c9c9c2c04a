package coherence

import (
	"repro/internal/mem"
	"repro/internal/stats"
)

// AccessSource feeds a processor its memory reference stream. Generators
// live in internal/trace; tests use slice-backed sources.
type AccessSource interface {
	// Next returns the next access, or ok=false when the stream ends.
	Next() (a mem.Access, ok bool)
}

// SliceSource is an AccessSource over a fixed slice.
//
//stash:tileowned
type SliceSource struct {
	Accesses []mem.Access
	pos      int
}

// Next implements AccessSource.
//
//stash:hotpath
func (s *SliceSource) Next() (mem.Access, bool) {
	if s.pos >= len(s.Accesses) {
		return mem.Access{}, false
	}
	a := s.Accesses[s.pos]
	s.pos++
	return a, true
}

// Processor is the in-order core model. With Params.MSHRs <= 1 it is the
// blocking core of the base configuration: one access at a time, a think
// cycle between accesses. With more MSHRs it issues up to that many
// accesses concurrently (one per think interval), modeling stall-on-use
// memory-level parallelism.
//
//stash:tileowned
type Processor struct {
	id          int
	fab         *Fabric
	l1          *L1
	src         AccessSource
	mshrs       int
	outstanding int
	exhausted   bool
	issuing     bool // an issue event is already scheduled
	finished    bool

	// issueFn and doneFn are bound once at construction: every issue event
	// and access-completion callback reuses them, so the core's issue loop
	// allocates nothing per access.
	issueFn func()
	doneFn  func()

	stats  ProcessorStats
	doneAt uint64
}

// newProcessor wires core id to its L1 and source.
func newProcessor(id int, fab *Fabric, l1 *L1, src AccessSource) *Processor {
	mshrs := fab.Params.MSHRs
	if mshrs < 1 {
		mshrs = 1
	}
	p := &Processor{
		id: id, fab: fab, l1: l1, src: src, mshrs: mshrs,
	}
	p.issueFn = p.issue
	p.doneFn = func() {
		p.outstanding--
		p.stats.AccessesCompleted.Inc()
		p.maybeFinish()
		p.pump()
	}
	return p
}

// Start schedules the processor's first issue.
func (p *Processor) Start() {
	p.fab.Engine.After(0, "core.start", p.pump)
}

// Finished reports whether the access stream has drained and every
// outstanding access completed.
func (p *Processor) Finished() bool { return p.finished }

// FinishCycle returns the cycle the last access completed (valid once
// Finished).
func (p *Processor) FinishCycle() uint64 { return p.doneAt }

// ProcessorStats counts a core's retired accesses.
type ProcessorStats struct {
	AccessesCompleted stats.Counter
}

// Stats returns the processor's counters.
func (p *Processor) Stats() *ProcessorStats { return &p.stats }

// L1 returns the processor's cache controller.
func (p *Processor) L1() *L1 { return p.l1 }

// Source returns the access source feeding this processor. The system
// layer uses it to close file-backed sources and surface deferred read
// errors after a run.
func (p *Processor) Source() AccessSource { return p.src }

// pump issues accesses while MSHRs are free, pacing issues one think-time
// apart.
//
//stash:hotpath
func (p *Processor) pump() {
	if p.issuing || p.exhausted || p.outstanding >= p.mshrs {
		return
	}
	p.issuing = true
	p.fab.Engine.After(p.fab.Params.ThinkTime, "core.issue", p.issueFn)
}

// issue is the core.issue event body.
//
//stash:hotpath
func (p *Processor) issue() {
	p.issuing = false
	if p.exhausted || p.outstanding >= p.mshrs {
		return
	}
	a, ok := p.src.Next()
	if !ok {
		p.exhausted = true
		p.maybeFinish()
		return
	}
	p.outstanding++
	p.l1.Access(a, p.doneFn)
	p.pump()
}

//stash:hotpath
func (p *Processor) maybeFinish() {
	if p.exhausted && p.outstanding == 0 && !p.finished {
		p.finished = true
		p.doneAt = uint64(p.fab.Engine.Now())
	}
}
