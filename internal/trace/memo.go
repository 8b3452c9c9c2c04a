package trace

import (
	"sync"

	"repro/internal/mem"
)

// Trace memoization. A Stream is a pure function of (mix, core, cores,
// length, seed), and the simulator replays identical streams constantly:
// every directory organization in a sweep runs the same workload, and
// benchmarks re-run one configuration back to back. Zipf sampling is the
// expensive part (an exp and a log per draw), so the first full generation
// of a stream records the emitted accesses and later streams with the same
// key replay the recording verbatim. Replay is bit-identical by
// construction — Next has no observable effect besides the accesses it
// returns.
//
// A recording holds one packed uint32 per access, block<<1 | write: a
// generated address is the first byte of its block, so the block and the
// write bit are the whole access. A stream that reaches a block of 2^31 or
// more cannot be packed and is generated every time instead; no built-in
// mix comes near it (the highest private block at 256 cores is below
// 2^26).
//
// Only streams that are consumed to completion are published; a partially
// drained stream (e.g. a halted simulation) records nothing. The cache is
// bounded in bytes and evicts whole traces FIFO, so long-lived processes
// cannot grow it without limit.

// streamKey identifies one deterministic stream. Mix contains only
// comparable fields, so the struct is a valid map key.
type streamKey struct {
	mix    Mix
	core   int
	cores  int
	length int
	seed   int64
}

const (
	// memoMaxStream is the longest stream worth recording (accesses).
	memoMaxStream = 1 << 20
	// memoBudget bounds the bytes retained across all cached traces. At
	// memoAccessBytes per access it holds 16M accesses, so a whole 256-core
	// run of 20k accesses per core (5.1M) fits.
	memoBudget = 64 << 20
	// memoAccessBytes is the size of one recorded access.
	memoAccessBytes = 4
	// memoBlockLimit bounds the blocks a recording can hold: the packed
	// form keeps a block in the upper 31 bits of a uint32.
	memoBlockLimit mem.Block = 1 << 31
)

// packAccess returns the recorded form of an access to block b, which
// must be below memoBlockLimit.
//
//stash:hotpath
func packAccess(b mem.Block, write bool) uint32 {
	v := uint32(b) << 1
	if write {
		v |= 1
	}
	return v
}

// unpackAccess is the inverse of packAccess.
//
//stash:hotpath
func unpackAccess(v uint32) mem.Access {
	return mem.Access{Addr: mem.AddrOf(mem.Block(v >> 1)), Write: v&1 != 0}
}

// memoCache is the process-wide trace cache. It is deliberately global —
// every fabric in the process replays the same workloads — and therefore
// shared across parallel tiles; the embedded mutex serializes access.
//
//stash:shared process-wide cache guarded by its embedded Mutex; replayed content is identical to generated content
type memoCache struct {
	sync.Mutex
	traces map[streamKey][]uint32
	order  []streamKey // insertion order, for FIFO eviction
	held   int         // total bytes of accesses currently cached
}

var memo memoCache

// memoLookup returns the recorded trace for key, or nil.
func memoLookup(key streamKey) []uint32 {
	memo.Lock()
	t := memo.traces[key]
	memo.Unlock()
	return t
}

// memoPublish stores a fully generated trace, evicting oldest entries to
// stay within budget.
//
//stash:fold mutex-serialized and order-commutative: replay equals generation, so which tile publishes first is unobservable
func memoPublish(key streamKey, t []uint32) {
	size := len(t) * memoAccessBytes
	if size > memoBudget {
		return
	}
	memo.Lock()
	defer memo.Unlock()
	if memo.traces == nil {
		memo.traces = make(map[streamKey][]uint32)
	}
	if _, ok := memo.traces[key]; ok {
		return
	}
	for memo.held+size > memoBudget && len(memo.order) > 0 {
		old := memo.order[0]
		memo.order = memo.order[1:]
		memo.held -= len(memo.traces[old]) * memoAccessBytes
		delete(memo.traces, old)
	}
	memo.traces[key] = t
	memo.order = append(memo.order, key)
	memo.held += size
}
