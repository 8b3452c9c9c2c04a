package coherence

import (
	"repro/internal/mem"
	"repro/internal/stats"
)

// Memory is the off-chip DRAM model: a flat value store with fixed access
// latency (imposed by the banks via the engine) and access counting for the
// energy model. Reads of never-written blocks return zero, matching the
// value oracle's initial state. The value store is a block table, so a
// memory allocates nothing until its first write.
//
//stash:tileowned (each parallel tile view gets its own Memory, folded after the run)
type Memory struct {
	values blockTable[uint64]

	stats MemoryStats
}

// MemoryStats counts DRAM accesses.
type MemoryStats struct {
	Reads, Writes stats.Counter
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{} }

// reset empties the value store, keeping its storage, and zeroes the
// counters.
func (m *Memory) reset() {
	m.values.reset()
	m.stats = MemoryStats{}
}

// Read returns the value of block b, counting one DRAM read.
func (m *Memory) Read(b mem.Block) uint64 {
	m.stats.Reads.Inc()
	v, _ := m.values.get(b)
	return v
}

// Write stores the value of block b, counting one DRAM write. Writebacks
// are posted: the caller does not wait.
func (m *Memory) Write(b mem.Block, v uint64) {
	m.stats.Writes.Inc()
	m.values.put(b, v)
}

// Stats returns the memory's counters.
func (m *Memory) Stats() *MemoryStats { return &m.stats }

// FoldStats accumulates o's access counters into m. The parallel engine
// gives each tile its own Memory (blocks partition perfectly by home
// bank, so the value stores are disjoint) and folds the counters into the
// root fabric's Memory, in tile order, at end of run; counter addition
// commutes, so the totals are shard-layout-invariant. The value maps are
// not merged — nothing reads them after a parallel run (the audit is
// checker-gated and the checker is off).
func (m *Memory) FoldStats(o *Memory) {
	m.stats.Reads.Add(o.stats.Reads.Value())
	m.stats.Writes.Add(o.stats.Writes.Value())
}
