package coherence

import "repro/internal/mem"

// blockTable is a small open-addressed hash table keyed by mem.Block. The
// controllers use it in place of Go maps for their per-block books (TBEs,
// eviction buffers, invalidation reasons): linear probing over flat slices
// keeps lookups branch-cheap and allocation-free, and once the table has
// grown to cover the steady-state working set it never re-hashes again.
//
// Deletion uses backward-shift compaction (no tombstones), so the load
// factor stays honest no matter how much churn the protocol produces.
//
// A table allocates nothing until its first insertion: most of a
// machine's tables are empty for most of a run, and a model-checker world
// that is only built and encoded touches none of them. The zero value is
// an empty table of the minimum size, so a table can live inside the
// struct that owns it.
//
//stash:tileowned
type blockTable[V any] struct {
	keys  []mem.Block
	vals  []V
	used  []bool
	n     int
	shift uint // 64 - log2(len(keys)); fibonacci-hash bucket shift
	size0 int  // the first allocation's size (0: minBlockTable), which reset returns to
}

// minBlockTable is the smallest first allocation: a zero table's, and
// newBlockTable's for a hint of 6 or less.
const minBlockTable = 8

// newBlockTable returns an empty table whose first insertion sizes it so
// that `hint` live entries fit below the grow threshold (3/4 load).
func newBlockTable[V any](hint int) *blockTable[V] {
	size := minBlockTable
	for size*3 < hint*4 {
		size *= 2
	}
	return &blockTable[V]{size0: size}
}

func (t *blockTable[V]) alloc(size int) {
	t.keys = make([]mem.Block, size)
	t.vals = make([]V, size)
	t.used = make([]bool, size)
	t.setShift(size)
}

func (t *blockTable[V]) setShift(size int) {
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
}

// reset empties the table back to its first allocation's size, so slot
// order (and with it forEach order) matches a fresh table's. A grown
// table keeps the head of its arrays.
func (t *blockTable[V]) reset() {
	if t.keys == nil {
		return
	}
	t.keys = t.keys[:t.size0]
	t.vals = t.vals[:t.size0]
	t.used = t.used[:t.size0]
	clear(t.keys)
	clear(t.vals)
	clear(t.used)
	t.n = 0
	t.setShift(t.size0)
}

// home returns the preferred slot for block b.
//
//stash:hotpath
func (t *blockTable[V]) home(b mem.Block) int {
	return int((uint64(b) * 0x9E3779B97F4A7C15) >> t.shift)
}

// len returns the number of live entries.
//
//stash:hotpath
func (t *blockTable[V]) len() int { return t.n }

// get returns the value stored for b.
//
//stash:hotpath
func (t *blockTable[V]) get(b mem.Block) (V, bool) {
	if t.n == 0 {
		var zero V
		return zero, false
	}
	mask := len(t.keys) - 1
	for i := t.home(b); t.used[i]; i = (i + 1) & mask {
		if t.keys[i] == b {
			return t.vals[i], true
		}
	}
	var zero V
	return zero, false
}

// has reports whether b is present.
//
//stash:hotpath
func (t *blockTable[V]) has(b mem.Block) bool {
	if t.n == 0 {
		return false
	}
	mask := len(t.keys) - 1
	for i := t.home(b); t.used[i]; i = (i + 1) & mask {
		if t.keys[i] == b {
			return true
		}
	}
	return false
}

// put stores v for b, inserting or overwriting.
//
//stash:hotpath
func (t *blockTable[V]) put(b mem.Block, v V) {
	if (t.n+1)*4 > len(t.keys)*3 {
		t.grow()
	}
	mask := len(t.keys) - 1
	i := t.home(b)
	for t.used[i] {
		if t.keys[i] == b {
			t.vals[i] = v
			return
		}
		i = (i + 1) & mask
	}
	t.keys[i] = b
	t.vals[i] = v
	t.used[i] = true
	t.n++
}

// del removes b's entry, if present, compacting the probe chain so later
// lookups stay correct without tombstones.
//
//stash:hotpath
func (t *blockTable[V]) del(b mem.Block) {
	if t.n == 0 {
		return
	}
	mask := len(t.keys) - 1
	i := t.home(b)
	for {
		if !t.used[i] {
			return
		}
		if t.keys[i] == b {
			break
		}
		i = (i + 1) & mask
	}
	// Backward-shift: pull displaced entries into the hole while their home
	// slot lies at or before it (cyclically).
	j := i
	for {
		j = (j + 1) & mask
		if !t.used[j] {
			break
		}
		h := t.home(t.keys[j])
		if (j-h)&mask >= (j-i)&mask {
			t.keys[i] = t.keys[j]
			t.vals[i] = t.vals[j]
			i = j
		}
	}
	var zero V
	t.keys[i] = 0
	t.vals[i] = zero
	t.used[i] = false
	t.n--
}

// grow doubles the table (or makes its first allocation) and re-inserts
// every entry.
func (t *blockTable[V]) grow() {
	if t.size0 == 0 {
		t.size0 = minBlockTable
	}
	keys, vals, used := t.keys, t.vals, t.used
	t.alloc(max(2*len(keys), t.size0))
	t.n = 0
	for i, u := range used {
		if u {
			t.put(keys[i], vals[i])
		}
	}
}

// forEach visits every live entry in slot order (deterministic). The table
// must not be mutated during iteration.
//
//stash:hotpath
func (t *blockTable[V]) forEach(fn func(mem.Block, V)) {
	for i, u := range t.used {
		if u {
			fn(t.keys[i], t.vals[i])
		}
	}
}
