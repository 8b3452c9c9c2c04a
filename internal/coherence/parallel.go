package coherence

import (
	"errors"
	"fmt"

	"repro/internal/noc"
	"repro/internal/psim"
	"repro/internal/sim"
)

// This file wires the coherence fabric onto the parallel engine
// (internal/psim). The partitioning unit is the NoC tile: tile i's L1,
// bank and processor all run on tile i's private event queue, and each
// tile gets its own *view* of the fabric — a Fabric value whose shared
// structure (mesh, controller slices, parameters) aliases the root's but
// whose per-tile machinery (engine, message pool, memory counters, store
// stamper, outgoing mailbox) is private. The controllers themselves are
// untouched: at runtime they reach everything through their own fabric
// pointer, so handing them a view at construction is the entire
// integration.
//
// Cross-tile message ownership (the pooled-Msg handoff rule): a *Msg is
// acquired from the sending tile's pool, parked in that tile's mailbox
// (ownership moves to the merge front at the epoch barrier), scheduled
// into the destination tile's queue, and finally released into the
// *receiving* tile's pool by the destination handler. Pools are plain
// free-lists, so objects migrate between tiles with the traffic; that is
// safe because get() fully zeroes a recycled message and no tile touches
// another tile's pool concurrently (sends during an epoch only push to
// the sender-owned mailbox; pool puts happen in the receiver's epoch).

// parcel is one cross-tile protocol message parked for the epoch merge:
// everything the merge needs to replay the send against the mesh.
//
//stash:tileowned
type parcel struct {
	dst   noc.NodeID
	class noc.Class
	flits int32
	msg   *Msg
}

// tileLocal is a tile view's private transport state: the self-delivery
// path (messages a tile sends to itself never cross the merge) and the
// tile's share of the mesh statistics, folded into the mesh after the run.
//
//stash:tileowned
type tileLocal struct {
	eng       *sim.Engine
	ep        *tile
	router    sim.Cycle
	traffic   noc.LocalTraffic
	env       []*noc.Message
	deliverFn func(any)
}

// getEnv draws a delivery envelope from the tile's free list.
//
//stash:acquire
//stash:hotpath
func (tl *tileLocal) getEnv() *noc.Message {
	if n := len(tl.env); n > 0 {
		m := tl.env[n-1]
		tl.env = tl.env[:n-1]
		return m
	}
	return &noc.Message{} //stash:ignore hotpath pool warm-up; amortized away by reuse
}

// deliver hands an arrived message to the tile endpoint and recycles the
// envelope. It is the parallel counterpart of Mesh.deliver, bound once
// per tile so deliveries schedule without closures.
//
//stash:hotpath
func (tl *tileLocal) deliver(arg any) {
	m := arg.(*noc.Message)
	tl.traffic.Delivered++
	tl.ep.Deliver(m)
	m.Payload = nil
	tl.env = append(tl.env, m)
}

// psend is send's parallel-mode tail: self-addressed messages turn around
// through the local router on the tile's own queue; cross-tile ones are
// parked in the mailbox, stamped with the send cycle, for the merge.
//
//stash:transfer
//stash:hotpath
func (f *Fabric) psend(src, dst noc.NodeID, m *Msg) {
	tl := f.local
	if src == dst {
		tl.traffic.Msgs[m.class()]++
		env := tl.getEnv()
		env.Src, env.Dst, env.Class, env.Flits, env.Payload = src, dst, m.class(), m.flits(), m
		tl.eng.AtArg(tl.eng.Now()+tl.router, "noc.deliver", tl.deliverFn, env)
		return
	}
	f.pout.Push(uint64(tl.eng.Now()), parcel{dst: dst, class: m.class(), flits: int32(m.flits()), msg: m})
}

// ParallelFabric is a fabric split across per-tile event queues for the
// parallel engine. Root is the shared spine (mesh, controller slices,
// fold targets); Views[i] is tile i's fabric view.
type ParallelFabric struct {
	Root   *Fabric
	Views  []*Fabric
	shards int

	engines []*sim.Engine
	boxes   []*psim.Mailbox[parcel]
	locals  []*tileLocal
	visitFn func(src int, at uint64, p parcel)

	// EpochHook, when set before Drive, runs on the driver thread at every
	// epoch barrier (see psim.Engine.OnEpoch). The occupancy sampler hooks
	// here: the barrier grid is deterministic and shard-count-invariant.
	EpochHook func(start, end sim.Cycle)
}

// NewParallelFabric builds the fabric partitioned across shards worker
// goroutines (1 <= shards <= tiles). The resulting machine computes one
// fixed schedule — the psim (cycle, tile, tile-sequence) order — at every
// shard count; it is a different (equally deterministic) schedule from
// the serial fabric's global insertion order, so results are compared
// against psim golden fixtures, not the serial ones.
func NewParallelFabric(cfg BuildConfig, shards int) (*ParallelFabric, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	tiles := cfg.Mesh.Width * cfg.Mesh.Height
	if tiles != cfg.Params.Cores {
		return nil, fmt.Errorf("coherence: mesh has %d tiles for %d cores", tiles, cfg.Params.Cores)
	}
	if shards < 1 || shards > tiles {
		return nil, fmt.Errorf("coherence: shards must be in [1,%d], got %d", tiles, shards)
	}
	// The root engine exists only to satisfy the mesh constructor; no
	// event is ever scheduled on it (ReserveRoute does not schedule, and
	// parallel sends never reach Mesh.Send).
	rootEngine := sim.NewEngine()
	mesh, err := noc.New(rootEngine, cfg.Mesh)
	if err != nil {
		return nil, err
	}
	root := &Fabric{
		Engine:  rootEngine,
		Mesh:    mesh,
		Params:  cfg.Params,
		Memory:  NewMemory(),
		Checker: NewChecker(),
		L1s:     make([]*L1, tiles),
		Banks:   make([]*Bank, tiles),
	}
	// Load verification needs a globally ordered oracle; parallel tiles
	// stamp stores independently (see NewStridedChecker), so the root
	// checker is a disabled placeholder and Drive never audits.
	root.Checker.SetEnabled(false)

	pf := &ParallelFabric{
		Root:    root,
		Views:   make([]*Fabric, tiles),
		shards:  shards,
		engines: make([]*sim.Engine, tiles),
		boxes:   make([]*psim.Mailbox[parcel], tiles),
		locals:  make([]*tileLocal, tiles),
	}
	pf.visitFn = pf.visit
	for i := 0; i < tiles; i++ {
		eng := sim.NewEngine()
		v := &Fabric{
			Engine:  eng,
			Mesh:    mesh,
			Params:  cfg.Params,
			Memory:  NewMemory(),
			Checker: NewStridedChecker(i, tiles),
			L1s:     root.L1s,
			Banks:   root.Banks,
			pout:    &psim.Mailbox[parcel]{},
		}
		l1, bank, err := buildTile(v, i, &cfg)
		if err != nil {
			return nil, err
		}
		root.L1s[i] = l1
		root.Banks[i] = bank
		ep := &tile{l1: l1, bank: bank}
		mesh.Attach(noc.NodeID(i), ep)
		v.local = &tileLocal{eng: eng, ep: ep, router: cfg.Mesh.RouterLatency}
		v.local.deliverFn = v.local.deliver
		pf.Views[i] = v
		pf.engines[i] = eng
		pf.boxes[i] = v.pout
		pf.locals[i] = v.local
	}
	return pf, nil
}

// AttachProcessors binds one access source per core, each on its tile's
// view, and returns the processors (not yet started).
func (pf *ParallelFabric) AttachProcessors(sources []AccessSource) ([]*Processor, error) {
	if len(sources) != pf.Root.Params.Cores {
		return nil, fmt.Errorf("coherence: %d sources for %d cores", len(sources), pf.Root.Params.Cores)
	}
	procs := make([]*Processor, len(sources))
	for i, src := range sources {
		procs[i] = newProcessor(i, pf.Views[i], pf.Root.L1s[i], src)
	}
	return procs, nil
}

// visit replays one cross-tile send at the merge front: reserve the route
// (identical link arbitration to the serial send path, in the canonical
// order Drain imposes) and schedule the delivery on the destination
// tile's queue from the destination's envelope pool.
//
//stash:hotpath
func (pf *ParallelFabric) visit(src int, at uint64, p parcel) {
	arrival := pf.Root.Mesh.ReserveRoute(noc.NodeID(src), p.dst, p.class, int(p.flits), sim.Cycle(at))
	tl := pf.locals[p.dst]
	env := tl.getEnv()
	env.Src, env.Dst, env.Class, env.Flits, env.Payload = noc.NodeID(src), p.dst, p.class, int(p.flits), p.msg
	tl.eng.AtArg(arrival, "noc.deliver", tl.deliverFn, env)
}

// merge is the epoch merge front: drain every tile's mailbox in
// (cycle, source tile, send order) order.
//
//stash:hotpath
func (pf *ParallelFabric) merge(end sim.Cycle) {
	psim.Drain(pf.boxes, pf.visitFn)
}

// Cycles returns the furthest tile clock (the parallel analogue of the
// serial engine's final Now()). Meaningful after Drive.
func (pf *ParallelFabric) Cycles() sim.Cycle {
	var max sim.Cycle
	for _, e := range pf.engines {
		if t := e.Now(); t > max {
			max = t
		}
	}
	return max
}

// EventsRun returns the total events executed across all tiles.
func (pf *ParallelFabric) EventsRun() uint64 {
	var n uint64
	for _, e := range pf.engines {
		n += e.EventsRun()
	}
	return n
}

// Drive starts the processors, runs the parallel engine to completion and
// folds the per-tile statistics into the root fabric. Mirrors
// Fabric.Drive's error contract: event-limit overrun, a Stop and deadlock
// are errors; the oracle/audit steps are skipped because parallel mode runs
// with the checker disabled (enforced by the system layer's Validate).
func (pf *ParallelFabric) Drive(procs []*Processor, maxEvents uint64) error {
	if pf.Root.OnMessage != nil {
		return fmt.Errorf("coherence: the OnMessage observer is serial-only; run with Shards=0")
	}
	for _, p := range procs {
		p.Start()
	}
	eng, err := psim.New(psim.Config{
		Shards:    pf.shards,
		Lookahead: pf.Root.Mesh.MinHopLatency(),
		MaxEvents: maxEvents,
	}, pf.engines)
	if err != nil {
		return err
	}
	eng.OnEpoch = pf.EpochHook
	if _, err := eng.Run(pf.merge); err != nil {
		if errors.Is(err, psim.ErrEventLimit) {
			return fmt.Errorf("coherence: event limit %d reached with %d events pending", maxEvents, eng.Pending())
		}
		return err
	}
	if n := eng.Pending(); n != 0 {
		return fmt.Errorf("coherence: stopped with %d events pending", n)
	}
	for _, p := range procs {
		if !p.Finished() {
			return fmt.Errorf("coherence: deadlock — core %d stalled at cycle %d with queue drained%s",
				p.id, pf.Cycles(), pf.Root.describeStall(p))
		}
	}
	// Fold per-tile accumulators into the root, in tile order; every fold
	// is a commutative accumulation, so the totals are shard-invariant.
	for _, v := range pf.Views {
		pf.Root.Memory.FoldStats(v.Memory)
	}
	for _, tl := range pf.locals {
		pf.Root.Mesh.FoldLocal(&tl.traffic)
	}
	return nil
}

// Stop stops every tile engine, so a running Drive returns at its next
// epoch barrier with events still queued. Safe to call from any goroutine.
func (pf *ParallelFabric) Stop() {
	for _, e := range pf.engines {
		e.Stop()
	}
}

// MinHopLatency exposes the run's lookahead (epoch width) for reporting.
func (pf *ParallelFabric) MinHopLatency() sim.Cycle {
	return pf.Root.Mesh.MinHopLatency()
}
