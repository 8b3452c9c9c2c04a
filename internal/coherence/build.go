package coherence

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/noc"
	"repro/internal/sim"
)

// BuildConfig assembles a complete fabric: mesh geometry, controller
// parameters, per-tile cache shapes and a directory factory (one slice per
// bank).
type BuildConfig struct {
	Params Params
	Mesh   noc.Config
	L1     cache.Config // per-core
	// L2, when non-nil, adds an inclusive private L2 per core; the
	// directory then tracks L2 contents.
	L2  *cache.Config
	LLC cache.Config // per-bank
	// NewDirectory builds bank's directory slice.
	NewDirectory func(bank int) (core.Directory, error)
}

// NewFabric constructs and wires engine, mesh, memory, checker, banks and
// L1s. Processors are attached afterwards with AttachProcessors.
func NewFabric(cfg BuildConfig) (*Fabric, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	tiles := cfg.Mesh.Width * cfg.Mesh.Height
	if tiles != cfg.Params.Cores {
		return nil, fmt.Errorf("coherence: mesh has %d tiles for %d cores", tiles, cfg.Params.Cores)
	}
	engine := sim.NewEngine()
	mesh, err := noc.New(engine, cfg.Mesh)
	if err != nil {
		return nil, err
	}
	f := &Fabric{
		Engine:  engine,
		Mesh:    mesh,
		Params:  cfg.Params,
		Memory:  NewMemory(),
		Checker: NewChecker(),
	}
	f.L1s = make([]*L1, cfg.Params.Cores)
	f.Banks = make([]*Bank, cfg.Params.Cores)
	for i := 0; i < cfg.Params.Cores; i++ {
		l1, bank, err := buildTile(f, i, &cfg)
		if err != nil {
			return nil, err
		}
		f.L1s[i] = l1
		f.Banks[i] = bank
		mesh.Attach(noc.NodeID(i), &tile{l1: l1, bank: bank})
	}
	return f, nil
}

// buildTile constructs tile i's controllers wired to fabric f — the whole
// fabric in serial mode, tile i's view in parallel mode (the controllers
// only ever touch their own fabric pointer at runtime, which is what makes
// the per-tile views sufficient).
func buildTile(f *Fabric, i int, cfg *BuildConfig) (*L1, *Bank, error) {
	// Each tile's copy of a cache config gets its own random-policy
	// seed, offset from the configured base, so cores don't march
	// through identical victim sequences in lockstep.
	l1Cfg := cfg.L1
	l1Cfg.Seed = cfg.L1.Seed + int64(i)*7919
	var l2Cfg *cache.Config
	if cfg.L2 != nil {
		c2 := *cfg.L2
		c2.Seed = cfg.L2.Seed + int64(i)*7919
		l2Cfg = &c2
	}
	l1, err := NewL1(i, f, l1Cfg, l2Cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("coherence: tile %d: %w", i, err)
	}
	dir, err := cfg.NewDirectory(i)
	if err != nil {
		return nil, nil, err
	}
	llcCfg := cfg.LLC
	llcCfg.Seed = cfg.LLC.Seed + int64(i)*7919
	bank, err := NewBank(i, f, dir, llcCfg)
	if err != nil {
		return nil, nil, fmt.Errorf("coherence: tile %d: %w", i, err)
	}
	return l1, bank, nil
}

// AttachProcessors binds one access source per core and returns the
// processors (not yet started).
func (f *Fabric) AttachProcessors(sources []AccessSource) ([]*Processor, error) {
	if len(sources) != f.Params.Cores {
		return nil, fmt.Errorf("coherence: %d sources for %d cores", len(sources), f.Params.Cores)
	}
	procs := make([]*Processor, len(sources))
	for i, src := range sources {
		procs[i] = newProcessor(i, f, f.L1s[i], src)
	}
	return procs, nil
}

// Drive starts the processors and runs the engine to completion. It
// returns an error if the simulation deadlocks (events drain with a
// processor unfinished), exceeds maxEvents (0 = unlimited), fails the value
// oracle, or fails the quiescent-state audit.
func (f *Fabric) Drive(procs []*Processor, maxEvents uint64) error {
	for _, p := range procs {
		p.Start()
	}
	f.Engine.Run(maxEvents)
	if f.Engine.Pending() != 0 {
		return fmt.Errorf("coherence: event limit %d reached with %d events pending", maxEvents, f.Engine.Pending())
	}
	for _, p := range procs {
		if !p.Finished() {
			return fmt.Errorf("coherence: deadlock — core %d stalled at cycle %d with queue drained%s",
				p.id, f.Engine.Now(), f.describeStall(p))
		}
	}
	if err := f.Checker.Err(); err != nil {
		return err
	}
	// The audit walks every cache and directory slice; benchmark-scale runs
	// that disabled the checker skip it along with load verification.
	if f.Checker.Enabled() {
		if bad := Audit(f); len(bad) != 0 {
			return fmt.Errorf("coherence: audit failed: %s (and %d more)", bad[0], len(bad)-1)
		}
	}
	return nil
}

// describeStall summarizes a stalled core's outstanding state for deadlock
// reports.
func (f *Fabric) describeStall(p *Processor) string {
	if p.l1.tbes.len() == 0 {
		return " (no outstanding miss)"
	}
	s := ""
	p.l1.tbes.forEach(func(b mem.Block, _ *l1TBE) {
		bank := f.Banks[f.HomeBank(b)]
		s += fmt.Sprintf(": waiting on block %#x", uint64(b))
		if tbe, ok := bank.tbes.get(b); ok {
			s += fmt.Sprintf(" (bank %d transaction waiting for %d acks)", bank.id, tbe.waitAcks)
			if tbe.qlen != 0 {
				s += fmt.Sprintf(" (%d requests queued)", tbe.qlen)
			}
		}
	})
	return s
}
