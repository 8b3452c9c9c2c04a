// Package mcheck is an explicit-state model checker for the coherence
// protocol in internal/coherence. It does not re-model the protocol: it
// builds a tiny but complete fabric (a few cores, a few addresses, any
// directory organization) and drives the real controllers through every
// reachable interleaving of message deliveries, bank retries, and injected
// processor loads, stores and evictions.
//
// Exploration is a breadth-first search over canonical state encodings
// (coherence.StateEncoder plus the checker's own channel and retry state),
// so each distinct machine state is expanded once and the first violation
// found is a minimal-length counterexample. Store values are renamed to
// first-encounter order during encoding (the protocol is data-independent),
// which makes the reachable state space finite even under unbounded
// injection: exploration terminates by exhaustion rather than by bound
// when no depth limit is set.
//
// Nodes are reconstructed by replay — resetting a recycled fabric to its
// initial state and re-running the action path from the root — rather than
// by snapshotting the controllers' object graphs. Replay keeps the checker
// honest: the only state that matters is state the real protocol can
// rebuild deterministically. Expanding a node replays it once per enabled
// action but the last, which is applied to the world already replayed to
// list the actions, so each transition costs one replay. A search holds at
// most two worlds (the node being expanded and its child) and builds the
// second only when it first needs it; every other replay resets one of
// them instead of building a fabric.
//
// Each transition encodes one state, its child's, and allocates nothing
// once the search's buffers have grown: a parent is encoded only when it
// has a retry to fire, since only the livelock check reads its key.
//
// The visited set keeps hash compaction's fingerprint per state (Stern and
// Dill): the first 16 bytes of the SHA-256 of its encoding, not the
// encoding itself, so a state costs a 16-byte key and a 24-byte node. The
// search is exact up to a fingerprint collision, which would drop the
// later of two colliding states unexplored. Over n distinct states a
// 128-bit hash collides with probability at most n(n-1)/2^129, below
// 2^-87 at the default budget of 2M states. SHA-256 is deterministic, so
// a collision, however unlikely, would repeat identically from run to run.
package mcheck

import (
	"cmp"
	"crypto/sha256"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/noc"
)

// Kinds lists the directory organizations the checker can explore.
func Kinds() []string { return []string{"fullmap", "sparse", "cuckoo", "stash", "stash-ss"} }

// Config parameterizes one exploration.
type Config struct {
	Cores int    // cores (tiles); default 2
	Addrs int    // distinct blocks, all homed on bank 0; default 1
	Kind  string // directory organization (see Kinds); default "stash"

	// MaxDepth bounds the number of injected stimuli (loads, stores,
	// evictions) per path; 0 explores without bound, which still
	// terminates (see the package comment) and is exact. A nonzero bound
	// truncates: states reachable only with more stimuli are missed.
	MaxDepth int
	// MaxStates bounds the number of distinct states expanded; 0 means
	// the default (2,000,000).
	MaxStates int
	// MaxEvents bounds engine events per action; exceeding it is reported
	// as a suspected livelock. 0 means the default (100,000).
	MaxEvents int
	// MaxViolations stops the search after this many violations; 0 means
	// the default (1): stop at the first, minimal counterexample.
	MaxViolations int

	ThreeHop    bool // enable three-hop (owner→requester) forwarding
	SilentEvict bool // enable silent clean evictions

	RecordEdges bool // keep the full transition graph (for DOT export)
	RecordTable bool // record (receiver, message, pre, post) transition rows

	// NewDropFilter, when set, installs a fresh message-drop filter per
	// replayed world (the filter must be deterministic along a path, so
	// stateful filters get a fresh instance each replay). A true return
	// drops the message. Mutation tests use it to model protocol bugs.
	NewDropFilter func() func(src, dst noc.NodeID, m *coherence.Msg) bool
	// WrapDirectory, when set, wraps each bank's directory organization.
	// Mutation tests use it to corrupt allocation outcomes.
	WrapDirectory func(d core.Directory) core.Directory
}

func (c *Config) setDefaults() {
	if c.Cores == 0 {
		c.Cores = 2
	}
	if c.Addrs == 0 {
		c.Addrs = 1
	}
	if c.Kind == "" {
		c.Kind = "stash"
	}
	if c.MaxStates == 0 {
		c.MaxStates = 2_000_000
	}
	if c.MaxEvents == 0 {
		c.MaxEvents = 100_000
	}
	if c.MaxViolations == 0 {
		c.MaxViolations = 1
	}
}

func (c *Config) validate() error {
	if c.Cores < 1 || c.Cores > 4 {
		return fmt.Errorf("mcheck: cores must be in [1,4], got %d", c.Cores)
	}
	if c.Addrs < 1 || c.Addrs > 4 {
		return fmt.Errorf("mcheck: addrs must be in [1,4], got %d", c.Addrs)
	}
	found := false
	for _, k := range Kinds() {
		if k == c.Kind {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("mcheck: unknown directory kind %q (want one of %v)", c.Kind, Kinds())
	}
	return nil
}

// Violation is one safety failure with its minimal reproducing trace.
type Violation struct {
	Kind    string // "invariant", "value", "deadlock", "livelock", "audit", "leak", "event-budget"
	Message string
	Trace   []string // action descriptions from the initial state
}

func (v Violation) String() string {
	s := fmt.Sprintf("%s: %s", v.Kind, v.Message)
	for i, step := range v.Trace {
		s += fmt.Sprintf("\n  %2d. %s", i+1, step)
	}
	return s
}

// Edge is one transition of the explored graph (RecordEdges only).
type Edge struct {
	From, To int32
	Label    string
}

// TableRow is one observed protocol transition: receiver kind, delivered
// message type, and the receiver's per-block state before the delivery and
// after the fabric re-quiesced.
type TableRow struct {
	Receiver  string // "L1" or "bank"
	Msg       string
	Pre, Post string
}

// Result summarizes one exploration.
type Result struct {
	Kind         string
	Cores, Addrs int

	States      int // distinct canonical states reached
	Transitions int // actions applied (including ones hitting visited states)
	Quiescent   int // states with no in-flight work at all
	Depth       int // longest action path to a distinct state

	Truncated  string // nonempty when a budget cut the search short
	Violations []Violation

	Edges []Edge     // RecordEdges only
	Table []TableRow // RecordTable only
}

// Summary is the one-line human rendering.
func (r *Result) Summary() string {
	s := fmt.Sprintf("%s cores=%d addrs=%d: %d states, %d transitions, %d quiescent, depth %d, %d violation(s)",
		r.Kind, r.Cores, r.Addrs, r.States, r.Transitions, r.Quiescent, r.Depth, len(r.Violations))
	if r.Truncated != "" {
		s += " [truncated: " + r.Truncated + "]"
	}
	return s
}

// ---------------------------------------------------------------------------
// Actions and worlds
// ---------------------------------------------------------------------------

type actionKind uint8

const (
	aDeliver actionKind = iota
	aRetry
	aLoad
	aStore
	aEvict
)

// action names one scheduler choice. Deliver is identified by channel (the
// head of a per-(src,dst) FIFO is the only deliverable message on it: the
// real NoC preserves point-to-point order, so out-of-order delivery within
// a channel would explore states the machine cannot reach). Retries are
// identified by (bank, kind, block), injections by (core, addr). Tiles,
// banks, cores and addresses fit a byte each (validate caps cores and
// addresses at 4), which keeps an action at 16 bytes.
type action struct {
	kind     actionKind
	src, dst uint8               // aDeliver: tile ids
	bank     uint8               // aRetry
	rkind    coherence.RetryKind // aRetry
	core     uint8               // aLoad/aStore/aEvict
	addr     uint8               // aLoad/aStore/aEvict: block index
	block    mem.Block           // aRetry
}

// channel is one point-to-point FIFO of captured messages.
type channel struct {
	src, dst noc.NodeID
	q        []*coherence.Msg
}

// world is one concrete machine along one path: the fabric plus the
// checker-owned transport and stimulus state.
type world struct {
	f           *coherence.Fabric
	chans       []*channel // sorted by (src, dst); empty channels stay in place
	parked      []coherence.ParkedRetry
	outstanding []bool // per core: an injected access has not completed
	injections  int
	dropped     int // messages eaten by the drop filter

	// drop is this replay's message-drop filter (Config.NewDropFilter),
	// a fresh instance per replay; nil drops nothing.
	drop func(src, dst noc.NodeID, m *coherence.Msg) bool
	// doneFns[c] clears core c's outstanding bit when its injected access
	// completes. They are bound on the world's first injection, so a world
	// that never injects allocates none.
	doneFns []func()
}

func (w *world) channelFor(src, dst noc.NodeID) *channel {
	i := sort.Search(len(w.chans), func(i int) bool {
		c := w.chans[i]
		return c.src > src || (c.src == src && c.dst >= dst)
	})
	if i < len(w.chans) && w.chans[i].src == src && w.chans[i].dst == dst {
		return w.chans[i]
	}
	c := &channel{src: src, dst: dst}
	w.chans = append(w.chans, nil)
	copy(w.chans[i+1:], w.chans[i:])
	w.chans[i] = c
	return c
}

// inflight reports whether any captured message or parked retry concerns b.
func (w *world) inflight(b mem.Block) bool {
	for _, ch := range w.chans {
		for _, m := range ch.q {
			if m.Block == b {
				return true
			}
		}
	}
	for _, p := range w.parked {
		if p.Block() == b {
			return true
		}
	}
	return false
}

// quiescent reports whether nothing at all is in flight.
func (w *world) quiescent() bool {
	for _, ch := range w.chans {
		if len(ch.q) > 0 {
			return false
		}
	}
	if len(w.parked) > 0 || w.f.OpenWork() {
		return false
	}
	for _, o := range w.outstanding {
		if o {
			return false
		}
	}
	return true
}

func newDirectory(kind string) (core.Directory, error) {
	assoc := core.AssocConfig{Sets: 1, Ways: 1, Policy: cache.LRU}
	switch kind {
	case "fullmap":
		return core.NewFullMap(), nil
	case "sparse":
		return core.NewSparse(assoc)
	case "cuckoo":
		return core.NewCuckoo(core.CuckooConfig{Ways: 2, SlotsPerWay: 1, Seed: 1})
	case "stash":
		return core.NewStash(core.StashConfig{AssocConfig: assoc})
	case "stash-ss":
		return core.NewStash(core.StashConfig{AssocConfig: assoc, StashSingletonShared: true})
	}
	return nil, fmt.Errorf("mcheck: unknown directory kind %q", kind)
}

// ---------------------------------------------------------------------------
// Explorer
// ---------------------------------------------------------------------------

// node is one distinct state: the action that first reached it from its
// parent. Nodes are numbered in the order the BFS reaches them, which is
// also the order it expands them.
type node struct {
	parent int32
	depth  int32
	act    action
}

// fingerprint is a visited state's key: the first 16 bytes of the SHA-256
// of its canonical encoding (see the package comment for the collision
// bound).
type fingerprint [16]byte

func fingerprintOf(k []byte) fingerprint {
	sum := sha256.Sum256(k)
	return fingerprint(sum[:16])
}

// Explorer runs one bounded or exhaustive exploration.
type Explorer struct {
	cfg     Config
	blocks  []mem.Block
	enc     *coherence.StateEncoder
	nodes   []node
	visited map[fingerprint]int32
	res     *Result
	rows    map[TableRow]struct{}
	parked  []coherence.ParkedRetry // scratch for sortedParked
	acts    []action                // scratch for enabled
	steps   []action                // scratch for path
	spare   []*world                // worlds free for the next replay
	replays int                     // worlds replayed from the root
}

// Run explores cfg's configuration and returns the result. An error means
// the checker itself failed (bad configuration, replay divergence) — a
// protocol bug is not an error, it is a Violation in the result.
func Run(cfg Config) (*Result, error) {
	e, err := explore(cfg)
	if err != nil {
		return nil, err
	}
	return e.res, nil
}

// explore runs the search and returns the finished explorer.
func explore(cfg Config) (*Explorer, error) {
	cfg.setDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	e := &Explorer{
		cfg:     cfg,
		enc:     coherence.NewStateEncoder(),
		visited: make(map[fingerprint]int32),
		res:     &Result{Kind: cfg.Kind, Cores: cfg.Cores, Addrs: cfg.Addrs},
	}
	if cfg.RecordTable {
		e.rows = make(map[TableRow]struct{})
	}
	// Every block is a multiple of the core count, so all of them home on
	// bank 0: the interesting directory-conflict interleavings need the
	// competing blocks to collide on one directory slice.
	e.blocks = make([]mem.Block, cfg.Addrs)
	for i := range e.blocks {
		e.blocks[i] = mem.Block(i * cfg.Cores)
	}
	if err := e.search(); err != nil {
		return nil, err
	}
	slices.SortFunc(e.res.Table, func(a, b TableRow) int {
		return cmp.Or(strings.Compare(a.Receiver, b.Receiver), strings.Compare(a.Msg, b.Msg),
			strings.Compare(a.Pre, b.Pre), strings.Compare(a.Post, b.Post))
	})
	return e, nil
}

// newWorld builds a fresh fabric at the initial state with the capture
// hooks installed.
func (e *Explorer) newWorld() (*world, error) {
	p := coherence.Params{
		Cores:        e.cfg.Cores,
		L1HitLatency: 1, L2HitLatency: 1, BankLatency: 1, MemLatency: 1,
		ThinkTime: 1, RetryDelay: 1, MSHRs: 1,
		SilentCleanEvictions: e.cfg.SilentEvict,
		ThreeHopForwarding:   e.cfg.ThreeHop,
	}
	// Sets=1 with Ways=Addrs everywhere: every block has a free way, so
	// victim selection always takes the deterministic invalid-way fast
	// path and replacement-policy state never influences behavior (it is
	// excluded from the canonical encoding).
	bc := coherence.BuildConfig{
		Params: p,
		Mesh:   noc.Config{Width: e.cfg.Cores, Height: 1, RouterLatency: 1, LinkLatency: 1, LinkBandwidth: 1},
		L1:     cache.Config{Name: "l1", Sets: 1, Ways: e.cfg.Addrs, Policy: cache.LRU},
		LLC:    cache.Config{Name: "llc", Sets: 1, Ways: e.cfg.Addrs, Policy: cache.LRU},
		NewDirectory: func(bank int) (core.Directory, error) {
			d, err := newDirectory(e.cfg.Kind)
			if err == nil && e.cfg.WrapDirectory != nil {
				d = e.cfg.WrapDirectory(d)
			}
			return d, err
		},
	}
	f, err := coherence.NewFabric(bc)
	if err != nil {
		return nil, err
	}
	w := &world{f: f, outstanding: make([]bool, e.cfg.Cores)}
	if e.cfg.NewDropFilter != nil {
		w.drop = e.cfg.NewDropFilter()
	}
	f.SetSendHook(func(src, dst noc.NodeID, m *coherence.Msg) bool {
		if w.drop != nil && w.drop(src, dst, m) {
			w.dropped++
			f.RecycleMsg(m)
			return true
		}
		ch := w.channelFor(src, dst)
		ch.q = append(ch.q, m)
		return true
	})
	f.SetRetryHook(func(p coherence.ParkedRetry) { w.parked = append(w.parked, p) })
	return w, nil
}

// initialWorld returns a world at the initial state: a spare one, reset,
// when there is one, else a newly built one. Hand it back with release.
func (e *Explorer) initialWorld() (*world, error) {
	n := len(e.spare)
	if n == 0 {
		return e.newWorld()
	}
	w := e.spare[n-1]
	e.spare = e.spare[:n-1]
	for _, ch := range w.chans {
		for i, m := range ch.q {
			w.f.RecycleMsg(m)
			ch.q[i] = nil
		}
		ch.q = ch.q[:0]
	}
	w.parked = w.parked[:0]
	clear(w.outstanding)
	w.injections, w.dropped = 0, 0
	w.f.Reset()
	w.drop = nil
	if e.cfg.NewDropFilter != nil {
		w.drop = e.cfg.NewDropFilter()
	}
	return w, nil
}

// release makes w available to the next initialWorld.
func (e *Explorer) release(w *world) { e.spare = append(e.spare, w) }

// drain runs the engine to quiescence after an action; its internal timer
// chains are deterministic, so all nondeterminism stays in the action
// choice.
func (e *Explorer) drain(w *world) error {
	w.f.Engine.Run(uint64(e.cfg.MaxEvents))
	if n := w.f.Engine.Pending(); n != 0 {
		return fmt.Errorf("event budget (%d) exhausted with %d events still pending — livelock suspected",
			e.cfg.MaxEvents, n)
	}
	return nil
}

// errDiverged marks replay divergence: an action recorded as enabled was
// not enabled when re-executed, i.e. the checker (not the protocol) is
// broken.
type errDiverged struct{ msg string }

func (d errDiverged) Error() string { return "replay divergence: " + d.msg }

// describe renders a, which must be enabled in w, as one human-readable
// step. A delivery's text names the message at the channel head, so it
// must be rendered before apply consumes it.
func (e *Explorer) describe(w *world, a action) string {
	switch a.kind {
	case aDeliver:
		if ch := w.channelFor(noc.NodeID(a.src), noc.NodeID(a.dst)); len(ch.q) > 0 {
			m := ch.q[0]
			return fmt.Sprintf("deliver %v(blk %#x) node%d->node%d", m.Type, uint64(m.Block), a.src, a.dst)
		}
		return fmt.Sprintf("deliver node%d->node%d", a.src, a.dst)
	case aRetry:
		return fmt.Sprintf("fire %v(blk %#x) at bank %d", a.rkind, uint64(a.block), a.bank)
	case aLoad, aStore:
		op := "load"
		if a.kind == aStore {
			op = "store"
		}
		return fmt.Sprintf("core %d: %s blk %#x", a.core, op, uint64(e.blocks[a.addr]))
	case aEvict:
		return fmt.Sprintf("core %d: evict blk %#x", a.core, uint64(e.blocks[a.addr]))
	}
	return fmt.Sprintf("unknown action kind %d", a.kind)
}

// apply executes one action on w and drains the engine.
func (e *Explorer) apply(w *world, a action) error {
	switch a.kind {
	case aDeliver:
		ch := w.channelFor(noc.NodeID(a.src), noc.NodeID(a.dst))
		if len(ch.q) == 0 {
			return errDiverged{fmt.Sprintf("channel %d->%d empty", a.src, a.dst)}
		}
		// Pop by copying the queue down, so the channel keeps its
		// capacity across the world's replays.
		m := ch.q[0]
		n := copy(ch.q, ch.q[1:])
		ch.q[n] = nil
		ch.q = ch.q[:n]
		var row TableRow
		if e.rows != nil {
			if m.Type.ToBank() {
				row = TableRow{Receiver: "bank", Msg: m.Type.String(), Pre: w.f.BankBlockState(int(a.dst), m.Block)}
			} else {
				row = TableRow{Receiver: "L1", Msg: m.Type.String(), Pre: w.f.L1BlockState(int(a.dst), m.Block)}
			}
		}
		blk := m.Block
		w.f.DeliverDirect(noc.NodeID(a.dst), m)
		if err := e.drain(w); err != nil {
			return err
		}
		if e.rows != nil {
			if row.Receiver == "bank" {
				row.Post = w.f.BankBlockState(int(a.dst), blk)
			} else {
				row.Post = w.f.L1BlockState(int(a.dst), blk)
			}
			if _, ok := e.rows[row]; !ok {
				e.rows[row] = struct{}{}
				e.res.Table = append(e.res.Table, row)
			}
		}
		return nil

	case aRetry:
		idx := -1
		for i, p := range w.parked {
			if p.BankID() == int(a.bank) && p.Kind() == a.rkind && p.Block() == a.block {
				idx = i
				break
			}
		}
		if idx < 0 {
			return errDiverged{fmt.Sprintf("no parked %v for blk %#x at bank %d", a.rkind, uint64(a.block), a.bank)}
		}
		p := w.parked[idx]
		w.parked = append(w.parked[:idx], w.parked[idx+1:]...)
		p.Fire()
		return e.drain(w)

	case aLoad, aStore:
		if w.outstanding[a.core] {
			return errDiverged{e.describe(w, a) + " while outstanding"}
		}
		w.injections++
		w.outstanding[a.core] = true
		if w.doneFns == nil {
			w.doneFns = make([]func(), len(w.outstanding))
			for c := range w.doneFns {
				w.doneFns[c] = func() { w.outstanding[c] = false }
			}
		}
		w.f.L1s[a.core].Access(mem.Access{Addr: mem.AddrOf(e.blocks[a.addr]), Write: a.kind == aStore},
			w.doneFns[a.core])
		return e.drain(w)

	case aEvict:
		w.injections++
		if !w.f.L1s[a.core].ForceEvict(e.blocks[a.addr]) {
			return errDiverged{e.describe(w, a) + " not evictable"}
		}
		return e.drain(w)
	}
	return errDiverged{fmt.Sprintf("unknown action kind %d", a.kind)}
}

// sortedParked returns w's parked retries in canonical (bank, block, kind)
// order. The slice is scratch, valid until the next call.
func (e *Explorer) sortedParked(w *world) []coherence.ParkedRetry {
	e.parked = append(e.parked[:0], w.parked...)
	slices.SortFunc(e.parked, func(a, b coherence.ParkedRetry) int {
		if c := cmp.Compare(a.BankID(), b.BankID()); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Block(), b.Block()); c != 0 {
			return c
		}
		return cmp.Compare(a.Kind(), b.Kind())
	})
	return e.parked
}

// enabled enumerates w's actions in canonical order: deliveries (channel
// order), parked retries (sorted), then injections per (core, addr). The
// slice is scratch, valid until the next call.
func (e *Explorer) enabled(w *world) []action {
	out := e.acts[:0]
	for _, ch := range w.chans {
		if len(ch.q) > 0 {
			out = append(out, action{kind: aDeliver, src: uint8(ch.src), dst: uint8(ch.dst)})
		}
	}
	for _, p := range e.sortedParked(w) {
		out = append(out, action{kind: aRetry, bank: uint8(p.BankID()), rkind: p.Kind(), block: p.Block()})
	}
	if e.cfg.MaxDepth > 0 && w.injections >= e.cfg.MaxDepth {
		e.res.Truncated = "depth budget"
		e.acts = out
		return out
	}
	for c := range uint8(e.cfg.Cores) {
		if w.outstanding[c] {
			continue
		}
		for a := range uint8(len(e.blocks)) {
			out = append(out,
				action{kind: aLoad, core: c, addr: a},
				action{kind: aStore, core: c, addr: a})
		}
	}
	for c := range uint8(e.cfg.Cores) {
		for a, blk := range e.blocks {
			if w.f.L1s[c].CanForceEvict(blk) {
				out = append(out, action{kind: aEvict, core: c, addr: uint8(a)})
			}
		}
	}
	e.acts = out
	return out
}

// encode renders w's complete canonical state: transport, parked retries,
// stimulus bookkeeping, then the fabric itself (one shared stamp renamer
// across all of it). The bytes are the encoder's buffer, valid until the
// next encode.
func (e *Explorer) encode(w *world) []byte {
	enc := e.enc
	enc.Reset()
	for _, ch := range w.chans {
		if len(ch.q) == 0 {
			continue
		}
		enc.Byte('C')
		enc.U64(uint64(ch.src))
		enc.U64(uint64(ch.dst))
		enc.U64(uint64(len(ch.q)))
		for _, m := range ch.q {
			enc.Msg(m)
		}
	}
	enc.Byte('R')
	parked := e.sortedParked(w)
	enc.U64(uint64(len(parked)))
	for _, p := range parked {
		enc.U64(uint64(p.BankID()))
		enc.Byte(byte(p.Kind()))
		enc.U64(uint64(p.Block()))
	}
	for _, o := range w.outstanding {
		if o {
			enc.Byte(1)
		} else {
			enc.Byte(0)
		}
	}
	enc.Fabric(w.f)
	return enc.Bytes()
}

// path returns the action sequence from the root to node id. The slice
// is scratch, valid until the next call.
func (e *Explorer) path(id int32) []action {
	steps := e.steps[:0]
	for n := id; n > 0; n = e.nodes[n].parent {
		steps = append(steps, e.nodes[n].act)
	}
	slices.Reverse(steps)
	e.steps = steps
	return steps
}

// replay reconstructs node id's world from the initial state. Hand the
// world back with release once done with it.
func (e *Explorer) replay(id int32) (*world, error) {
	e.replays++
	w, err := e.initialWorld()
	if err != nil {
		return nil, err
	}
	if err := e.drain(w); err != nil {
		return nil, err
	}
	for _, a := range e.path(id) {
		if err := e.apply(w, a); err != nil {
			return nil, fmt.Errorf("replaying node %d: %w", id, err)
		}
	}
	return w, nil
}

// trace renders node id's path as human-readable steps (by replaying it),
// followed by next's step when given: the action that failed from id.
func (e *Explorer) trace(id int32, next ...action) []string {
	w, err := e.initialWorld()
	if err != nil {
		return []string{fmt.Sprintf("<trace unavailable: %v>", err)}
	}
	defer e.release(w)
	_ = e.drain(w)
	var out []string
	for _, a := range e.path(id) {
		out = append(out, e.describe(w, a))
		if err := e.apply(w, a); err != nil {
			return append(out, fmt.Sprintf("<%v>", err))
		}
	}
	for _, a := range next {
		out = append(out, e.describe(w, a))
	}
	return out
}

func (e *Explorer) violation(kind, msg string, id int32) {
	e.res.Violations = append(e.res.Violations, Violation{Kind: kind, Message: msg, Trace: e.trace(id)})
}

func (e *Explorer) done() bool {
	return len(e.res.Violations) >= e.cfg.MaxViolations
}

// checkState runs the per-state safety checks on a freshly reached state.
// prevChk is how many checker violations the parent state had already
// accumulated along this path (the value oracle records them during
// execution; older ones were reported when their state was reached).
func (e *Explorer) checkState(w *world, id int32, prevChk int) {
	for _, v := range w.f.Checker.Violations()[prevChk:] {
		e.violation("value", v, id)
	}
	for _, v := range coherence.StepInvariants(w.f, w.inflight) {
		e.violation("invariant", v, id)
	}
	if w.quiescent() {
		e.res.Quiescent++
		for _, v := range coherence.Audit(w.f) {
			e.violation("audit", v, id)
		}
		if inUse, _ := w.f.MsgPoolStats(); inUse != 0 {
			e.violation("leak", fmt.Sprintf("%d pooled messages still live at quiescence", inUse), id)
		}
		for _, bk := range w.f.Banks {
			if inUse, _ := bk.TBEPoolUse(); inUse != 0 {
				e.violation("leak", fmt.Sprintf("%d bank TBEs still live at quiescence", inUse), id)
			}
		}
	}
}

// search is the BFS over canonical states. The node list is its queue:
// nodes are appended in the order they are reached.
func (e *Explorer) search() error {
	w0, err := e.initialWorld()
	if err != nil {
		return err
	}
	if err := e.drain(w0); err != nil {
		return err
	}
	e.nodes = []node{{parent: -1}}
	e.visited[fingerprintOf(e.encode(w0))] = 0
	e.res.States = 1
	e.checkState(w0, 0, 0)
	e.release(w0)

	for id := int32(0); int(id) < len(e.nodes) && !e.done(); id++ {
		if e.res.States >= e.cfg.MaxStates {
			e.res.Truncated = "state budget"
			break
		}
		pw, err := e.replay(id)
		if err != nil {
			return err
		}
		parentChk := len(pw.f.Checker.Violations())
		open := pw.f.OpenWork()
		acts := e.enabled(pw)

		// Deadlock: open protocol work with nothing deliverable and no
		// retry to fire means some required message was never sent (or
		// was dropped).
		hasDeliver, retries := false, 0
		for _, a := range acts {
			switch a.kind {
			case aDeliver:
				hasDeliver = true
			case aRetry:
				retries++
			}
		}
		if open && !hasDeliver && retries == 0 {
			e.release(pw)
			e.violation("deadlock", "open transactions with no deliverable message and no retry to fire", id)
			continue
		}
		// Only the livelock check reads the parent's own key, to spot a
		// retry that loops back to it, so a parent with no retry to fire
		// is never encoded.
		var parentFP fingerprint
		if retries > 0 {
			parentFP = fingerprintOf(e.encode(pw))
		}

		retrySelfLoops := 0
		for i, a := range acts {
			if e.done() {
				break
			}
			// The last action consumes the parent's own world; every
			// earlier one gets a fresh replay.
			cw := pw
			if i < len(acts)-1 {
				if cw, err = e.replay(id); err != nil {
					return err
				}
			} else {
				pw = nil
			}
			var desc string
			if e.cfg.RecordEdges {
				desc = e.describe(cw, a)
			}
			aerr := e.apply(cw, a)
			e.res.Transitions++
			if aerr != nil {
				if _, ok := aerr.(errDiverged); ok {
					return aerr
				}
				// Event-budget blowout: report it with the offending step
				// appended to the parent's trace.
				e.release(cw)
				v := Violation{Kind: "event-budget", Message: aerr.Error(), Trace: e.trace(id, a)}
				e.res.Violations = append(e.res.Violations, v)
				continue
			}
			fp := fingerprintOf(e.encode(cw))
			if a.kind == aRetry && fp == parentFP {
				retrySelfLoops++
			}
			if prev, ok := e.visited[fp]; ok {
				e.release(cw)
				if e.cfg.RecordEdges {
					e.res.Edges = append(e.res.Edges, Edge{From: id, To: prev, Label: desc})
				}
				continue
			}
			nid := int32(len(e.nodes))
			e.visited[fp] = nid
			d := e.nodes[id].depth + 1
			e.nodes = append(e.nodes, node{parent: id, depth: d, act: a})
			if int(d) > e.res.Depth {
				e.res.Depth = int(d)
			}
			e.res.States++
			if e.cfg.RecordEdges {
				e.res.Edges = append(e.res.Edges, Edge{From: id, To: nid, Label: desc})
			}
			e.checkState(cw, nid, parentChk)
			e.release(cw)
		}
		if pw != nil {
			e.release(pw)
		}

		// Livelock: protocol work is stuck behind retries whose firing
		// changes nothing, and no delivery can unblock them — the blocked
		// allocations will spin forever no matter what else is injected.
		if open && !hasDeliver && retries > 0 && retrySelfLoops == retries && !e.done() {
			e.violation("livelock", "all enabled retries loop back to the same state with open transactions", id)
		}
	}
	return nil
}
