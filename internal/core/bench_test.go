package core

import (
	"testing"

	"repro/internal/mem"
)

// BenchmarkDirectoryConflict times one conflict cycle on a full 64-entry
// slice: Allocate a new block and, when the organization demands a recall,
// Remove the victim and Allocate again. After the fill every allocation
// conflicts. Entries are owned by one core, so the stash slice drops its
// victims silently where sparse and cuckoo recall them. `make
// bench-protocol` records these and fails if any allocates.
func BenchmarkDirectoryConflict(b *testing.B) {
	notBusy := func(mem.Block) bool { return false }
	for _, name := range []string{"sparse", "stash", "cuckoo"} {
		b.Run(name, func(b *testing.B) {
			d := directoriesUnderTest(b)[name]
			var next mem.Block
			cycle := func() {
				blk := next
				next++
				res := d.Allocate(blk, notBusy)
				if res.Outcome == AllocNeedsRecall {
					d.Remove(res.Victim.Block)
					res = d.Allocate(blk, notBusy)
				}
				if res.Entry == nil {
					b.Fatalf("block %d: outcome %v", blk, res.Outcome)
				}
				res.Entry.Sharers.Add(int(blk) % 16)
				res.Entry.Owned = true
			}
			for d.OccupiedEntries() < d.Capacity() {
				cycle()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}
