package coherence

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/mem"
)

// TestAuditGolden pins Audit's exact violation strings and their order.
// Downstream tooling greps these messages (the model checker classifies
// them, CI logs diff them across runs), and the report order is documented
// to be a pure function of machine state — block then core, residency
// problems before the hidden-bit sweep. Each case drives a healthy fabric
// into a known state, corrupts it, and compares Audit's output verbatim.
// If you reword a message or reorder the checks, update the goldens here
// in the same commit — that is the review point the test exists to force.
func TestAuditGolden(t *testing.T) {
	cases := []struct {
		name string
		mk   dirFactory
		run  func(t *testing.T, f *Fabric) []string // corrupt; return want
	}{
		{
			name: "clean",
			mk:   fullMapFactory(),
			run: func(t *testing.T, f *Fabric) []string {
				load(t, f, 0, 3)
				store(t, f, 1, 5)
				return nil
			},
		},
		{
			name: "swmr",
			mk:   fullMapFactory(),
			run: func(t *testing.T, f *Fabric) []string {
				load(t, f, 0, 3)
				load(t, f, 1, 3)
				f.L1s[0].Cache().Probe(3).State = mem.Modified
				return []string{
					"SWMR violated for block 0x3: 2 holders with an owned copy present",
				}
			},
		},
		{
			name: "inclusion",
			mk:   fullMapFactory(),
			run: func(t *testing.T, f *Fabric) []string {
				load(t, f, 0, 3)
				bk := f.Banks[f.HomeBank(3)]
				bk.LLC().Evict(bk.LLC().Probe(3))
				return []string{
					fmt.Sprintf("inclusion violated: block 0x3 cached in L1 but absent from LLC bank %d", f.HomeBank(3)),
				}
			},
		},
		{
			name: "tracking-lost",
			mk:   fullMapFactory(),
			run: func(t *testing.T, f *Fabric) []string {
				load(t, f, 0, 3)
				f.Banks[f.HomeBank(3)].Directory().Remove(3)
				return []string{
					"tracking lost: block 0x3 cached in L1, no directory entry, hidden bit clear",
				}
			},
		},
		{
			name: "omitted-holder",
			mk:   fullMapFactory(),
			run: func(t *testing.T, f *Fabric) []string {
				load(t, f, 0, 3)
				load(t, f, 1, 3)
				entry := f.Banks[f.HomeBank(3)].Directory().Probe(3)
				entry.Sharers.Remove(0)
				return []string{
					"directory entry for block 0x3 omits holder core 0",
				}
			},
		},
		{
			name: "phantom-sharer",
			mk:   fullMapFactory(),
			run: func(t *testing.T, f *Fabric) []string {
				load(t, f, 0, 3)
				entry := f.Banks[f.HomeBank(3)].Directory().Probe(3)
				entry.Sharers.Add(2)
				return []string{
					"directory entry for block 0x3 lists core 2, which holds nothing",
				}
			},
		},
		{
			name: "tracked-and-hidden",
			mk:   stashFactory(4, 2, 0, false),
			run: func(t *testing.T, f *Fabric) []string {
				load(t, f, 0, 3)
				f.Banks[f.HomeBank(3)].LLC().Probe(3).Flags |= flagHidden
				return []string{
					"block 0x3 is both tracked and hidden",
				}
			},
		},
		{
			name: "hidden-multi-copy",
			mk:   stashFactory(4, 2, 0, false),
			run: func(t *testing.T, f *Fabric) []string {
				load(t, f, 0, 3)
				load(t, f, 1, 3)
				bk := f.Banks[f.HomeBank(3)]
				bk.Directory().Remove(3)
				bk.LLC().Probe(3).Flags |= flagHidden
				// Both the per-block residency check and the trailing
				// hidden-bit sweep fire, residency first.
				return []string{
					"hidden block 0x3 has 2 copies, want exactly 1",
					"hidden block 0x3 has 2 holders",
				}
			},
		},
		{
			name: "inflight-residue",
			mk:   fullMapFactory(),
			run: func(t *testing.T, f *Fabric) []string {
				// Plant unfinished work directly: a stalled access and an
				// unacknowledged eviction on core 1, an open transaction on
				// core 2, and an open bank transaction. The audit reports
				// them in L1-id order (tbes, stalls, evictions) before the
				// bank sweep.
				f.L1s[1].stalled = append(f.L1s[1].stalled, pendingAccess{}, pendingAccess{})
				f.L1s[1].evict.put(8, evictBuf{})
				f.L1s[2].tbes.put(4, &l1TBE{})
				f.Banks[0].tbes.put(12, &dirTBE{})
				return []string{
					"core 1 has 2 stalled accesses",
					"core 1 has an unacknowledged eviction for block 0x8",
					"core 2 has an unfinished transaction for block 0x4",
					"bank 0 has 1 unfinished transactions",
				}
			},
		},
		{
			name: "block-then-core-order",
			mk:   fullMapFactory(),
			run: func(t *testing.T, f *Fabric) []string {
				// Violations on two blocks and two cores: output must sort
				// by block first, then core, regardless of corruption order.
				load(t, f, 0, 5)
				load(t, f, 1, 5)
				load(t, f, 0, 3)
				load(t, f, 1, 3)
				e5 := f.Banks[f.HomeBank(5)].Directory().Probe(5)
				e5.Sharers.Remove(1)
				e5.Sharers.Remove(0)
				e3 := f.Banks[f.HomeBank(3)].Directory().Probe(3)
				e3.Sharers.Remove(1)
				return []string{
					"directory entry for block 0x3 omits holder core 1",
					"directory entry for block 0x5 omits holder core 0",
					"directory entry for block 0x5 omits holder core 1",
				}
			},
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := testFabric(t, 4, tc.mk)
			want := tc.run(t, f)
			got := Audit(f)
			if !slices.Equal(got, want) {
				t.Errorf("Audit output drifted.\n got: %q\nwant: %q", got, want)
			}
		})
	}
}

// TestStepInvariantsGolden pins StepInvariants' exact violation strings and
// their order, as TestAuditGolden does for Audit. The model checker reports
// these messages as counterexample verdicts. Payload mismatches come first,
// in L1-walk order (core, then cache slot); the residency checks follow in
// block order, naming the lowest-numbered holder where they name one.
func TestStepInvariantsGolden(t *testing.T) {
	cases := []struct {
		name     string
		mk       dirFactory
		inflight func(mem.Block) bool
		run      func(t *testing.T, f *Fabric) []string // corrupt; return want
	}{
		{
			name: "clean",
			mk:   fullMapFactory(),
			run: func(t *testing.T, f *Fabric) []string {
				load(t, f, 0, 3)
				store(t, f, 1, 5)
				return nil
			},
		},
		{
			name: "payload-walk-order",
			mk:   fullMapFactory(),
			run: func(t *testing.T, f *Fabric) []string {
				// Core 0 holds 3 (L1 set 3) and 5 (set 1); core 1 holds 3.
				// Walk order is core 0's set 1, its set 3, then core 1.
				load(t, f, 0, 3)
				load(t, f, 0, 5)
				load(t, f, 1, 3)
				f.L1s[0].Cache().Probe(3).Data = 0xbad
				f.L1s[0].Cache().Probe(5).Data = 0xbee
				f.L1s[1].Cache().Probe(3).Data = 0xbad
				return []string{
					"core 0 holds block 0x5 in E with payload 0xbee, oracle says 0x0",
					"core 0 holds block 0x3 in S with payload 0xbad, oracle says 0x0",
					"core 1 holds block 0x3 in S with payload 0xbad, oracle says 0x0",
				}
			},
		},
		{
			name: "swmr",
			mk:   fullMapFactory(),
			run: func(t *testing.T, f *Fabric) []string {
				load(t, f, 0, 3)
				load(t, f, 1, 3)
				f.L1s[0].Cache().Probe(3).State = mem.Modified
				return []string{
					"SWMR violated for block 0x3: 2 holders with an owned copy present",
				}
			},
		},
		{
			name: "inclusion",
			mk:   fullMapFactory(),
			run: func(t *testing.T, f *Fabric) []string {
				load(t, f, 2, 3)
				load(t, f, 1, 3)
				bk := f.Banks[f.HomeBank(3)]
				bk.LLC().Evict(bk.LLC().Probe(3))
				return []string{
					fmt.Sprintf("inclusion violated: quiet block 0x3 cached in core 1 but absent from LLC bank %d", f.HomeBank(3)),
				}
			},
		},
		{
			name: "tracking-lost",
			mk:   fullMapFactory(),
			run: func(t *testing.T, f *Fabric) []string {
				load(t, f, 2, 3)
				load(t, f, 1, 3)
				f.Banks[f.HomeBank(3)].Directory().Remove(3)
				return []string{
					"tracking lost: quiet block 0x3 cached in core 1, no directory entry, hidden bit clear",
				}
			},
		},
		{
			name:     "in-motion-skipped",
			mk:       fullMapFactory(),
			inflight: func(b mem.Block) bool { return b == 3 },
			run: func(t *testing.T, f *Fabric) []string {
				// A block with a message in flight may be untracked for a
				// moment; only its quiet neighbour is reported.
				load(t, f, 0, 3)
				load(t, f, 0, 5)
				f.Banks[f.HomeBank(3)].Directory().Remove(3)
				f.Banks[f.HomeBank(5)].Directory().Remove(5)
				return []string{
					"tracking lost: quiet block 0x5 cached in core 0, no directory entry, hidden bit clear",
				}
			},
		},
		{
			name: "omitted-holder",
			mk:   fullMapFactory(),
			run: func(t *testing.T, f *Fabric) []string {
				load(t, f, 0, 5)
				load(t, f, 1, 5)
				load(t, f, 0, 3)
				load(t, f, 1, 3)
				f.Banks[f.HomeBank(5)].Directory().Probe(5).Sharers.Remove(1)
				e3 := f.Banks[f.HomeBank(3)].Directory().Probe(3)
				e3.Sharers.Remove(1)
				e3.Sharers.Remove(0)
				return []string{
					"directory entry for quiet block 0x3 omits holder core 0",
					"directory entry for quiet block 0x3 omits holder core 1",
					"directory entry for quiet block 0x5 omits holder core 1",
				}
			},
		},
		{
			name: "tracked-and-hidden",
			mk:   stashFactory(4, 2, 0, false),
			run: func(t *testing.T, f *Fabric) []string {
				load(t, f, 0, 3)
				f.Banks[f.HomeBank(3)].LLC().Probe(3).Flags |= flagHidden
				return []string{
					"block 0x3 is both tracked and hidden",
				}
			},
		},
		{
			name: "hidden-multi-copy",
			mk:   stashFactory(4, 2, 0, false),
			run: func(t *testing.T, f *Fabric) []string {
				load(t, f, 0, 3)
				load(t, f, 1, 3)
				bk := f.Banks[f.HomeBank(3)]
				bk.Directory().Remove(3)
				bk.LLC().Probe(3).Flags |= flagHidden
				return []string{
					"hidden block 0x3 has 2 copies, want exactly 1",
				}
			},
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			f := testFabric(t, 4, tc.mk)
			want := tc.run(t, f)
			got := StepInvariants(f, tc.inflight)
			if !slices.Equal(got, want) {
				t.Errorf("StepInvariants output drifted.\n got: %q\nwant: %q", got, want)
			}
		})
	}
}
