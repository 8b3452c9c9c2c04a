// Protocoltrace walks a 4-core machine through the stash directory's
// signature sequence with every protocol message annotated:
//
//  1. core 0 writes block A (GetM, Modified in its L1),
//  2. core 1 touches another block that conflicts in the (1-entry)
//     directory slice — A's entry is *stashed*: dropped without
//     invalidating core 0's dirty copy; the LLC line gets the hidden bit,
//  3. core 2 reads A — the directory misses, sees the hidden bit, and
//     broadcasts a discovery probe that finds core 0's modified data.
//
// This example drives the fabric layer directly (internal packages) to get
// at the message hook; everyday users stay on the stashsim facade.
package main

import (
	"fmt"
	"log"

	"repro/internal/cache"
	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/noc"
)

func main() {
	fab, err := coherence.NewFabric(coherence.BuildConfig{
		Params: coherence.DefaultParams(4),
		Mesh:   noc.DefaultConfig(2, 2),
		L1:     cache.Config{Name: "l1", Sets: 4, Ways: 2},
		LLC:    cache.Config{Name: "llc", Sets: 16, Ways: 4, IndexShift: 2},
		NewDirectory: func(bank int) (core.Directory, error) {
			// One entry per bank: the second block homed on a bank evicts
			// the first, which is exactly what we want to show.
			return core.NewStash(core.StashConfig{
				AssocConfig: core.AssocConfig{Sets: 1, Ways: 1, IndexShift: 2},
			})
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	fab.OnMessage = func(src, dst noc.NodeID, m *coherence.Msg) {
		fmt.Printf("  [cycle %4d] node %d -> node %d  %v\n", fab.Engine.Now(), src, dst, m)
	}

	access := func(coreID int, block mem.Block, write bool, what string) {
		fmt.Printf("\n%s\n", what)
		done := false
		fab.L1s[coreID].Access(mem.Access{Addr: mem.AddrOf(block), Write: write}, func() { done = true })
		fab.Engine.Run(0)
		if !done {
			log.Fatal("access did not complete")
		}
	}

	const blockA = mem.Block(0) // homed on bank 0
	const blockB = mem.Block(4) // also homed on bank 0 (4 % 4 == 0)

	access(0, blockA, true, "1) core 0 writes block A: GetM, installed Modified, tracked by bank 0")
	access(1, blockB, false, "2) core 1 reads block B: bank 0's single entry is full -> A's entry is STASHED\n   (no invalidation message to core 0; the LLC line for A gets the hidden bit)")
	access(2, blockA, false, "3) core 2 reads block A: directory miss + hidden bit -> DISCOVERY broadcast;\n   core 0 answers with its modified data and downgrades to Shared")

	bank := fab.Banks[0].Stats()
	fmt.Printf("\noutcome: stash-evictions=%d discovery-broadcasts=%d discovery-found=%d recall-invalidations=%d\n",
		fab.Banks[0].Directory().Stats().StashEvictions.Value(),
		bank.DiscoveryBroadcasts.Value(),
		bank.DiscoveryFound.Value(),
		bank.InvsSent[coherence.ReasonRecall].Value())
	if errs := coherence.Audit(fab); len(errs) > 0 {
		log.Fatalf("audit failed: %v", errs)
	}
	fmt.Println("post-run invariant audit: clean")
}
