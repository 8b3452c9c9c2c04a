package coherence

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
)

// withPolicy selects the replacement policy of every private and LLC tag
// array (the directory slices take theirs from resetOrg).
func withPolicy(p cache.PolicyKind) fabricOpt {
	return func(c *BuildConfig) {
		c.L1.Policy, c.L1.Seed = p, 11
		c.LLC.Policy, c.LLC.Seed = p, 13
	}
}

// resetOrg builds small slices of one directory organization, so conflicts,
// recalls, stashing and cuckoo relocations all happen within a few hundred
// accesses per core.
func resetOrg(org string, p cache.PolicyKind) dirFactory {
	assoc := core.AssocConfig{Sets: 2, Ways: 2, Policy: p, Seed: 3}
	return func(bank int) (core.Directory, error) {
		switch org {
		case "fullmap":
			return core.NewFullMap(), nil
		case "sparse":
			return core.NewSparse(assoc)
		case "stash":
			return core.NewStash(core.StashConfig{AssocConfig: assoc})
		case "stash-ss":
			return core.NewStash(core.StashConfig{AssocConfig: assoc, StashSingletonShared: true})
		case "cuckoo":
			return core.NewCuckoo(core.CuckooConfig{Ways: 2, SlotsPerWay: 2, Seed: int64(bank + 1)})
		}
		return nil, fmt.Errorf("unknown organization %q", org)
	}
}

// TestResetMatchesFreshBuild drives one workload on a fabric — to the end,
// or cut off mid-flight with transactions, queued requests and events
// pending — resets it, and drives a second workload. Everything observable
// must then equal a freshly built fabric driving the second workload: the
// canonical state, the clock, every statistic, the checker, the pool books
// and the audit.
func TestResetMatchesFreshBuild(t *testing.T) {
	cases := []struct {
		name    string
		policy  cache.PolicyKind
		opts    []fabricOpt
		shuffle uint64
	}{
		{name: "default"},
		{name: "random", policy: cache.Random, opts: []fabricOpt{withPolicy(cache.Random)}},
		{name: "plru", policy: cache.TreePLRU, opts: []fabricOpt{withPolicy(cache.TreePLRU)}},
		{name: "nru", policy: cache.NRU, opts: []fabricOpt{withPolicy(cache.NRU)}},
		{name: "silent", opts: []fabricOpt{withSilentEvictions()}},
		{name: "threehop", opts: []fabricOpt{withThreeHop()}},
		{name: "pointer1", opts: []fabricOpt{withPointerLimit(1)}},
		{name: "tiny", opts: []fabricOpt{withL1(1, 1), withLLC(1, 2)}},
		{name: "mshr4", opts: []fabricOpt{withMSHRs(4), withL1(1, 2)}},
		{name: "l2", opts: []fabricOpt{withL2(8, 2)}},
		{name: "shuffle", shuffle: 7},
	}
	for _, org := range []string{"fullmap", "sparse", "stash", "stash-ss", "cuckoo"} {
		for _, tc := range cases {
			for _, cut := range []bool{false, true} {
				name := org + "/" + tc.name + "/drained"
				if cut {
					name = org + "/" + tc.name + "/cut"
				}
				t.Run(name, func(t *testing.T) {
					build := func() *Fabric {
						f := testFabric(t, 4, resetOrg(org, tc.policy), tc.opts...)
						if tc.shuffle != 0 {
							f.Engine.SetShuffleSeed(tc.shuffle)
						}
						return f
					}
					reused := build()
					procs, _ := reused.AttachProcessors(randomSources(4, 300, 12, 30, 0.3, 1))
					if !cut {
						if err := reused.Drive(procs, 0); err != nil {
							t.Fatalf("first workload: %v", err)
						}
					} else if reused.Drive(procs, 1500); reused.Engine.Pending() == 0 {
						t.Fatal("first workload finished within the cut")
					}
					reused.Reset()

					fresh := build()
					for _, f := range []*Fabric{reused, fresh} {
						procs, _ := f.AttachProcessors(randomSources(4, 300, 12, 30, 0.3, 2))
						if err := f.Drive(procs, 0); err != nil {
							t.Fatalf("second workload: %v", err)
						}
					}
					requireSameFabric(t, reused, fresh)
				})
			}
		}
	}
}

// requireSameFabric fails the test unless got and want are observably the
// same machine.
func requireSameFabric(t *testing.T, got, want *Fabric) {
	t.Helper()
	enc := NewStateEncoder()
	enc.Fabric(got)
	g := string(enc.Bytes())
	enc.Reset()
	enc.Fabric(want)
	if g != string(enc.Bytes()) {
		t.Errorf("state encodings differ")
	}
	if got.Engine.Now() != want.Engine.Now() || got.Engine.EventsRun() != want.Engine.EventsRun() {
		t.Errorf("engine at cycle %d after %d events, want cycle %d after %d",
			got.Engine.Now(), got.Engine.EventsRun(), want.Engine.Now(), want.Engine.EventsRun())
	}
	for i := range want.L1s {
		gl, wl := got.L1s[i], want.L1s[i]
		if *gl.Stats() != *wl.Stats() {
			t.Errorf("core %d L1 stats %+v, want %+v", i, *gl.Stats(), *wl.Stats())
		}
		if *gl.Cache().Stats() != *wl.Cache().Stats() {
			t.Errorf("core %d L1 tag stats %+v, want %+v", i, *gl.Cache().Stats(), *wl.Cache().Stats())
		}
		if wl.L2() != nil && *gl.L2().Stats() != *wl.L2().Stats() {
			t.Errorf("core %d L2 tag stats %+v, want %+v", i, *gl.L2().Stats(), *wl.L2().Stats())
		}
		gb, wb := got.Banks[i], want.Banks[i]
		if *gb.Stats() != *wb.Stats() {
			t.Errorf("bank %d stats %+v, want %+v", i, *gb.Stats(), *wb.Stats())
		}
		if *gb.LLC().Stats() != *wb.LLC().Stats() {
			t.Errorf("bank %d LLC stats %+v, want %+v", i, *gb.LLC().Stats(), *wb.LLC().Stats())
		}
		gd, wd := gb.Directory(), wb.Directory()
		if *gd.Stats() != *wd.Stats() {
			t.Errorf("bank %d directory stats %+v, want %+v", i, *gd.Stats(), *wd.Stats())
		}
		if gd.OccupiedEntries() != wd.OccupiedEntries() {
			t.Errorf("bank %d directory holds %d entries, want %d", i, gd.OccupiedEntries(), wd.OccupiedEntries())
		}
		gu, gh := gb.TBEPoolUse()
		wu, wh := wb.TBEPoolUse()
		if gu != wu || gh != wh {
			t.Errorf("bank %d TBE books %d live / %d peak, want %d / %d", i, gu, gh, wu, wh)
		}
	}
	if *got.Mesh.Stats() != *want.Mesh.Stats() {
		t.Errorf("mesh stats %+v, want %+v", *got.Mesh.Stats(), *want.Mesh.Stats())
	}
	if *got.Memory.Stats() != *want.Memory.Stats() {
		t.Errorf("memory stats %+v, want %+v", *got.Memory.Stats(), *want.Memory.Stats())
	}
	if g, w := got.Checker.Violations(), want.Checker.Violations(); !slices.Equal(g, w) {
		t.Errorf("checker violations %q, want %q", g, w)
	}
	gu, gh := got.MsgPoolStats()
	wu, wh := want.MsgPoolStats()
	if gu != wu || gh != wh {
		t.Errorf("message pool books %d live / %d peak, want %d / %d", gu, gh, wu, wh)
	}
	if g, w := Audit(got), Audit(want); !slices.Equal(g, w) {
		t.Errorf("audit %q, want %q", g, w)
	}
}
