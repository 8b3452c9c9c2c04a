package coherence

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/noc"
)

func TestBuildValidation(t *testing.T) {
	base := func() BuildConfig {
		return BuildConfig{
			Params: DefaultParams(4),
			Mesh:   noc.DefaultConfig(2, 2),
			L1:     cache.Config{Name: "l1", Sets: 4, Ways: 2},
			LLC:    cache.Config{Name: "llc", Sets: 16, Ways: 4, IndexShift: 2},
			NewDirectory: func(int) (core.Directory, error) {
				return core.NewFullMap(), nil
			},
		}
	}

	// Mesh/core mismatch.
	cfg := base()
	cfg.Mesh = noc.DefaultConfig(2, 1)
	if _, err := NewFabric(cfg); err == nil {
		t.Error("2-tile mesh for 4 cores accepted")
	}

	// Bad params.
	cfg = base()
	cfg.Params.Cores = 0
	if _, err := NewFabric(cfg); err == nil {
		t.Error("zero cores accepted")
	}
	cfg = base()
	cfg.Params.Cores = 65
	if _, err := NewFabric(cfg); err == nil {
		t.Error("65 cores accepted (sharer vector is 64-wide)")
	}
	cfg = base()
	cfg.Params.RetryDelay = 0
	if _, err := NewFabric(cfg); err == nil {
		t.Error("zero retry delay accepted")
	}
	cfg = base()
	cfg.Params.MSHRs = -1
	if _, err := NewFabric(cfg); err == nil {
		t.Error("negative MSHRs accepted")
	}
	cfg = base()
	cfg.Params.PointerLimit = -1
	if _, err := NewFabric(cfg); err == nil {
		t.Error("negative pointer limit accepted")
	}

	// Bad cache geometry propagates.
	cfg = base()
	cfg.L1.Sets = 3
	if _, err := NewFabric(cfg); err == nil {
		t.Error("non-power-of-two L1 sets accepted")
	}

	// Directory factory errors propagate.
	cfg = base()
	cfg.NewDirectory = func(int) (core.Directory, error) {
		return core.NewSparse(core.AssocConfig{Sets: 3, Ways: 1})
	}
	if _, err := NewFabric(cfg); err == nil {
		t.Error("directory factory error swallowed")
	}
}

func TestAttachProcessorsValidation(t *testing.T) {
	f := testFabric(t, 4, fullMapFactory())
	if _, err := f.AttachProcessors(make([]AccessSource, 3)); err == nil {
		t.Error("3 sources for 4 cores accepted")
	}
}

func TestHomeBankPartitionsBlocks(t *testing.T) {
	f := testFabric(t, 4, fullMapFactory())
	counts := make([]int, 4)
	for b := mem.Block(0); b < 1000; b++ {
		h := f.HomeBank(b)
		if h < 0 || h >= 4 {
			t.Fatalf("HomeBank(%d) = %d", b, h)
		}
		counts[h]++
	}
	for i, c := range counts {
		if c != 250 {
			t.Fatalf("bank %d owns %d of 1000 blocks, want 250", i, c)
		}
	}
}

func TestEmptySourceFinishesImmediately(t *testing.T) {
	f := testFabric(t, 4, fullMapFactory())
	procs, _ := f.AttachProcessors([]AccessSource{
		&SliceSource{}, &SliceSource{}, &SliceSource{}, &SliceSource{},
	})
	if err := f.Drive(procs, 0); err != nil {
		t.Fatal(err)
	}
	for _, p := range procs {
		if !p.Finished() || p.Stats().AccessesCompleted.Value() != 0 {
			t.Fatal("empty-source processor did not finish cleanly")
		}
	}
}

func TestOnMessageHookObservesTraffic(t *testing.T) {
	f := testFabric(t, 4, fullMapFactory())
	seen := 0
	f.OnMessage = func(src, dst noc.NodeID, m *Msg) { seen++ }
	load(t, f, 0, 3)
	if seen == 0 {
		t.Fatal("OnMessage hook never fired")
	}
}

func TestDescribeStallMentionsBlock(t *testing.T) {
	f := testFabric(t, 2, fullMapFactory())
	srcs := []AccessSource{
		&SliceSource{Accesses: []mem.Access{{Addr: 0}}},
		&SliceSource{},
	}
	procs, _ := f.AttachProcessors(srcs)
	// Tiny event budget: the run must fail with a diagnostic.
	err := f.Drive(procs, 3)
	if err == nil {
		t.Fatal("expected an event-limit error")
	}
}
