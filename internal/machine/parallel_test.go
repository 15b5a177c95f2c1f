package machine

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/pheap"
	"repro/internal/stats"
)

// The parallel stress test: N goroutine-backed cores × M transactions per
// backend, over disjoint per-core page ranges (the sharded contract), with
// occasional aborts. Each core's input stream is a fixed function of
// (seed, core), so per-core outcomes are deterministic regardless of
// host scheduling; the test then asserts that
//
//   - every durable value matches the serial reference run,
//   - order-independent aggregate statistics (commits, aborts, write-set
//     characterisation) match the serial run exactly,
//   - the cache-coherence and SSP frame-ownership invariants hold, and
//   - the machine still crash-recovers cleanly after the concurrent run.
//
// Run it under -race: it is the concurrency gate for the whole engine.

const (
	stressCores    = 4
	stressPagesPer = 12 // heap pages owned by each core
)

// stressScript executes core c's transaction stream and records the values
// the stream leaves behind. Writes stay within the core's own page range.
func stressScript(c *Core, txns int, seed uint64, final map[uint64]uint64) {
	rng := engine.NewRNG(seed + uint64(c.ID())*0x9E3779B97F4A7C15)
	base := 1 + c.ID()*stressPagesPer
	pending := map[uint64]uint64{}
	for i := 0; i < txns; i++ {
		c.Begin()
		n := 1 + rng.Intn(6)
		for j := 0; j < n; j++ {
			page := base + rng.Intn(stressPagesPer)
			line := rng.Intn(64)
			va := heapVA(page, line*64)
			val := uint64(c.ID()+1)<<32 | uint64(i+1)
			c.Store64(va, val)
			pending[va] = val
		}
		if rng.Intn(10) == 0 {
			c.Abort()
		} else {
			c.Commit()
			for va, v := range pending {
				final[va] = v
			}
		}
		clear(pending)
	}
}

func stressMachine(b BackendKind) *Machine {
	cfg := testConfig(b, stressCores)
	m := New(cfg)
	m.Heap().EnsureMapped(nil, 1, stressCores*stressPagesPer)
	return m
}

func TestParallelStressMatchesSerial(t *testing.T) {
	txns := 300
	if testing.Short() {
		txns = 80
	}
	for _, b := range allBackends() {
		t.Run(b.String(), func(t *testing.T) {
			// Serial reference: same per-core streams, one goroutine.
			ref := stressMachine(b)
			refFinal := make([]map[uint64]uint64, stressCores)
			for i := 0; i < stressCores; i++ {
				refFinal[i] = map[uint64]uint64{}
				stressScript(ref.Core(i), txns, 0xC0FFEE, refFinal[i])
			}
			ref.Drain()
			refStats := *ref.Stats()
			refWS := *ref.WriteSet()

			// Concurrent run.
			m := stressMachine(b)
			final := make([]map[uint64]uint64, stressCores)
			for i := range final {
				final[i] = map[uint64]uint64{}
			}
			m.Run(func(c *Core) {
				stressScript(c, txns, 0xC0FFEE, final[c.ID()])
			})
			m.Drain()

			// Durable values match the serial reference per core.
			c0 := m.Core(0)
			for i := 0; i < stressCores; i++ {
				if len(final[i]) != len(refFinal[i]) {
					t.Fatalf("core %d wrote %d addresses, serial wrote %d", i, len(final[i]), len(refFinal[i]))
				}
				for va, want := range refFinal[i] {
					if got := final[i][va]; got != want {
						t.Fatalf("core %d: stream diverged at %#x: %#x vs serial %#x", i, va, got, want)
					}
					if got := c0.Load64(va); got != want {
						t.Errorf("durable %#x = %#x, want %#x", va, got, want)
					}
				}
			}

			// Order-independent aggregates match the serial run.
			st := *m.Stats()
			if st.Commits != refStats.Commits || st.Aborts != refStats.Aborts {
				t.Errorf("commits/aborts %d/%d, serial %d/%d", st.Commits, st.Aborts, refStats.Commits, refStats.Aborts)
			}
			ws := *m.WriteSet()
			if ws.Txns != refWS.Txns || ws.TotalLines != refWS.TotalLines || ws.TotalPages != refWS.TotalPages {
				t.Errorf("write-set stats (%d,%d,%d), serial (%d,%d,%d)",
					ws.Txns, ws.TotalLines, ws.TotalPages, refWS.Txns, refWS.TotalLines, refWS.TotalPages)
			}

			// Hardware invariants hold after the concurrent run.
			if msg := m.DebugValidateCaches(); msg != "" {
				t.Fatalf("cache invariant violated: %s", msg)
			}
			if s, ok := m.Backend().(*core.SSP); ok {
				if msg := s.DebugCheckFrames(); msg != "" {
					t.Fatalf("SSP frame invariant violated: %s", msg)
				}
			}

			// The image the concurrent run left behind still recovers.
			if err := recycle(m); err != nil {
				t.Fatalf("post-parallel recovery: %v", err)
			}
			for i := 0; i < stressCores; i++ {
				for va, want := range refFinal[i] {
					if got := m.Core(0).Load64(va); got != want {
						t.Errorf("post-recovery %#x = %#x, want %#x", va, got, want)
					}
				}
			}
		})
	}
}

// TestParallelMultiChannel runs the stress streams on a 4-channel machine:
// the channel counters must account for every memory transfer, every channel
// must carry traffic, and order-independent aggregates must still match a
// serial run on the same multi-channel machine. (The simulated-time speedup
// of multi-channel runs is asserted deterministically in memsim's
// TestChannelBandwidthScaling and demonstrated by `sspbench -exp channels`;
// cross-core timing here depends on the host schedule.)
func TestParallelMultiChannel(t *testing.T) {
	txns := 200
	if testing.Short() {
		txns = 60
	}
	channelCfg := func(b BackendKind, channels int) Config {
		cfg := testConfig(b, stressCores)
		cfg.Mem.Channels = channels
		cfg.Mem.Interleave = memsim.InterleaveLine
		return cfg
	}
	runParallel := func(cfg Config) *Machine {
		m := New(cfg)
		m.Heap().EnsureMapped(nil, 1, stressCores*stressPagesPer)
		m.Run(func(c *Core) {
			stressScript(c, txns, 0xBEEF, map[uint64]uint64{})
		})
		m.Drain()
		return m
	}
	for _, b := range allBackends() {
		t.Run(b.String(), func(t *testing.T) {
			m := runParallel(channelCfg(b, 4))
			st := *m.Stats()

			var chanLines uint64
			for c := 0; c < 4; c++ {
				if st.ChannelLines[c] == 0 {
					t.Errorf("channel %d saw no traffic", c)
				}
				chanLines += st.ChannelLines[c]
			}
			total := st.NVRAMReadLines + st.NVRAMWriteLines + st.DRAMReadLines + st.DRAMWriteLines
			if chanLines != total {
				t.Errorf("per-channel lines %d != total transfers %d", chanLines, total)
			}

			// Serial reference on an identical 4-channel machine.
			ref := New(channelCfg(b, 4))
			ref.Heap().EnsureMapped(nil, 1, stressCores*stressPagesPer)
			for i := 0; i < stressCores; i++ {
				stressScript(ref.Core(i), txns, 0xBEEF, map[uint64]uint64{})
			}
			ref.Drain()
			refStats := *ref.Stats()
			if st.Commits != refStats.Commits || st.Aborts != refStats.Aborts {
				t.Errorf("commits/aborts %d/%d, serial %d/%d", st.Commits, st.Aborts, refStats.Commits, refStats.Aborts)
			}

			if msg := m.DebugValidateCaches(); msg != "" {
				t.Fatalf("cache invariant violated: %s", msg)
			}
		})
	}
}

// TestParallelJournalShards runs the SSP stress streams with a per-core
// sharded metadata journal: every shard must carry records, aggregates must
// match a serial run on the same configuration, durable values must match
// the serial reference, the frame invariant must hold, and the multi-shard
// image must crash-recover via the TID-merge path. Run under -race: the
// commit path takes only its shard's lock plus page locks here.
func TestParallelJournalShards(t *testing.T) {
	txns := 300
	if testing.Short() {
		txns = 80
	}
	shardCfg := func() Config {
		cfg := testConfig(SSP, stressCores)
		cfg.Layout.JournalShards = stressCores
		return cfg
	}

	// Serial reference.
	ref := New(shardCfg())
	ref.Heap().EnsureMapped(nil, 1, stressCores*stressPagesPer)
	refFinal := make([]map[uint64]uint64, stressCores)
	for i := 0; i < stressCores; i++ {
		refFinal[i] = map[uint64]uint64{}
		stressScript(ref.Core(i), txns, 0x5A4D, refFinal[i])
	}
	ref.Drain()
	refStats := *ref.Stats()

	m := New(shardCfg())
	m.Heap().EnsureMapped(nil, 1, stressCores*stressPagesPer)
	m.Run(func(c *Core) {
		stressScript(c, txns, 0x5A4D, map[uint64]uint64{})
	})
	m.Drain()

	st := *m.Stats()
	if st.Commits != refStats.Commits || st.Aborts != refStats.Aborts {
		t.Errorf("commits/aborts %d/%d, serial %d/%d", st.Commits, st.Aborts, refStats.Commits, refStats.Aborts)
	}
	if st.JournalRecords != refStats.JournalRecords {
		t.Errorf("journal records %d, serial %d", st.JournalRecords, refStats.JournalRecords)
	}
	pressure := m.JournalPressure()
	if len(pressure) != stressCores {
		t.Fatalf("journal pressure reports %d shards, want %d", len(pressure), stressCores)
	}
	var shardRecs uint64
	for _, p := range pressure {
		if p.Records == 0 {
			t.Errorf("shard %d appended no records", p.Shard)
		}
		shardRecs += p.Records
	}
	if shardRecs != st.JournalRecords {
		t.Errorf("per-shard records sum %d != total %d", shardRecs, st.JournalRecords)
	}
	if s, ok := m.Backend().(*core.SSP); ok {
		if msg := s.DebugCheckFrames(); msg != "" {
			t.Fatalf("SSP frame invariant violated: %s", msg)
		}
	}

	if err := recycle(m); err != nil {
		t.Fatalf("post-parallel multi-shard recovery: %v", err)
	}
	for i := 0; i < stressCores; i++ {
		for va, want := range refFinal[i] {
			if got := m.Core(0).Load64(va); got != want {
				t.Errorf("post-recovery %#x = %#x, want %#x", va, got, want)
			}
		}
	}
}

// recycle crashes and recovers the machine in place.
func recycle(m *Machine) error {
	m.Crash()
	m.Mem().PowerOn()
	m.Mem().ResetTiming()
	return m.Recover()
}

// TestParallelCrossShardCommits stresses concurrent global and local
// commits under -race: 4 goroutine-backed cores over 4 journal shards share
// a pool of pages, each guarded by a Lock. Roughly a quarter of every
// core's transactions are global — BeginGlobal sections writing 2-3 shared
// pages whose locks are acquired in ascending page order (the same total
// order everywhere, so no deadlock) — and the rest are single-page locals.
// Expected values are recorded in per-page maps mutated only while holding
// that page's lock, so the final durable state is well-defined despite the
// racy schedule. The test then checks the two-phase counters moved, the
// frame invariant holds, and the multi-shard image still crash-recovers to
// exactly the expected values.
func TestParallelCrossShardCommits(t *testing.T) {
	txns := 250
	if testing.Short() {
		txns = 60
	}
	const sharedPages = 8
	cfg := testConfig(SSP, stressCores)
	cfg.Layout.JournalShards = stressCores
	m := New(cfg)
	m.Heap().EnsureMapped(nil, 1, sharedPages)

	locks := make([]*Lock, sharedPages+1) // 1-indexed by page
	expect := make([]map[uint64]uint64, sharedPages+1)
	for p := 1; p <= sharedPages; p++ {
		locks[p] = m.NewLock()
		expect[p] = map[uint64]uint64{}
	}

	m.Run(func(c *Core) {
		rng := engine.NewRNG(0x6C0B + uint64(c.ID())*0x9E3779B97F4A7C15)
		for i := 0; i < txns; i++ {
			val := uint64(c.ID()+1)<<32 | uint64(i+1)
			if rng.Intn(4) == 0 {
				// Global: 2-3 distinct shared pages, ascending lock order.
				n := 2 + rng.Intn(2)
				seen := map[int]bool{}
				var pages []int
				for len(pages) < n {
					p := 1 + rng.Intn(sharedPages)
					if !seen[p] {
						seen[p] = true
						pages = append(pages, p)
					}
				}
				sort.Ints(pages)
				for _, p := range pages {
					c.Acquire(locks[p])
				}
				c.BeginGlobal()
				for _, p := range pages {
					line := rng.Intn(64)
					va := heapVA(p, line*64)
					c.Store64(va, val)
					expect[p][va] = val
				}
				c.Commit()
				for j := len(pages) - 1; j >= 0; j-- {
					c.Release(locks[pages[j]])
				}
				continue
			}
			// Local: one page under its lock.
			p := 1 + rng.Intn(sharedPages)
			c.Acquire(locks[p])
			c.Begin()
			line := rng.Intn(64)
			va := heapVA(p, line*64)
			c.Store64(va, val)
			expect[p][va] = val
			c.Commit()
			c.Release(locks[p])
		}
	})
	m.Drain()

	st := *m.Stats()
	if st.GlobalCommits == 0 {
		t.Fatal("no global commits took the two-phase path")
	}
	if st.PrepareRecords < 2*st.GlobalCommits {
		t.Errorf("prepare records %d < 2x global commits %d", st.PrepareRecords, st.GlobalCommits)
	}
	if s, ok := m.Backend().(*core.SSP); ok {
		if msg := s.DebugCheckFrames(); msg != "" {
			t.Fatalf("SSP frame invariant violated: %s", msg)
		}
	}
	verify := func(stage string) {
		c0 := m.Core(0)
		for p := 1; p <= sharedPages; p++ {
			for va, want := range expect[p] {
				if got := c0.Load64(va); got != want {
					t.Errorf("%s: %#x = %#x, want %#x", stage, va, got, want)
				}
			}
		}
	}
	verify("post-run")

	if err := recycle(m); err != nil {
		t.Fatalf("post-parallel cross-shard recovery: %v", err)
	}
	verify("post-recovery")
}

// TestParallelHeapArenas exercises concurrent allocation: each core
// allocates, links and frees from its own arena while the others do the
// same, then the heap is audited serially.
func TestParallelHeapArenas(t *testing.T) {
	rounds := 200
	if testing.Short() {
		rounds = 60
	}
	for _, b := range allBackends() {
		t.Run(b.String(), func(t *testing.T) {
			m := New(testConfig(b, stressCores))
			m.Heap().EnsureMapped(nil, 0, 0)
			arenas := make([]*heapArena, stressCores)
			for i := 0; i < stressCores; i++ {
				c := m.Core(i)
				c.Begin()
				arenas[i] = &heapArena{a: m.Heap().NewArena(c, 8)}
				c.Commit()
			}
			m.Run(func(c *Core) {
				ar := arenas[c.ID()]
				rng := engine.NewRNG(uint64(c.ID()) + 1)
				var live []uint64
				for r := 0; r < rounds; r++ {
					c.Begin()
					if len(live) > 0 && rng.Intn(3) == 0 {
						va := live[len(live)-1]
						live = live[:len(live)-1]
						ar.a.Free(c, va, 64)
					} else {
						va := ar.a.Alloc(c, 64)
						c.Store64(va, uint64(c.ID())<<48|uint64(r))
						live = append(live, va)
					}
					c.Commit()
				}
				ar.live = live
			})
			m.Drain()
			// Every live block still carries its owner's tag in the high bits.
			c0 := m.Core(0)
			for i, ar := range arenas {
				for _, va := range ar.live {
					if got := c0.Load64(va) >> 48; got != uint64(i) {
						t.Fatalf("arena %d block %#x tagged %d", i, va, got)
					}
				}
			}
			if msg := m.DebugValidateCaches(); msg != "" {
				t.Fatalf("cache invariant violated: %s", msg)
			}
		})
	}
}

type heapArena struct {
	a    *pheap.Arena
	live []uint64
}

// windowedStress runs the local+global mixed commit script (the
// TestParallelLocalGlobalStress shape: 4 cores × 2 journal shards, lock-guarded
// shared pages, 25% multi-shard globals, plus occasional aborts) on a fresh
// machine under the window scheduler, audits the result, and returns the
// run's aggregate stats.
func windowedStress(t *testing.T, txns int) stats.Stats {
	t.Helper()
	const sharedPages = 8
	cfg := testConfig(SSP, stressCores)
	cfg.Layout.JournalShards = 2
	cfg.TimeWindow = 4096
	m := New(cfg)
	m.Heap().EnsureMapped(nil, 1, sharedPages)

	locks := make([]*Lock, sharedPages+1)
	expect := make([]map[uint64]uint64, sharedPages+1)
	for p := 1; p <= sharedPages; p++ {
		locks[p] = m.NewLock()
		expect[p] = map[uint64]uint64{}
	}
	m.ResetStats()

	m.Run(func(c *Core) {
		rng := engine.NewRNG(0x10AD + uint64(c.ID())*0x9E3779B97F4A7C15)
		for i := 0; i < txns; i++ {
			val := uint64(c.ID()+1)<<32 | uint64(i+1)
			if rng.Intn(4) == 0 {
				n := 2 + rng.Intn(2)
				seen := map[int]bool{}
				var pages []int
				for len(pages) < n {
					p := 1 + rng.Intn(sharedPages)
					if !seen[p] {
						seen[p] = true
						pages = append(pages, p)
					}
				}
				sort.Ints(pages)
				for _, p := range pages {
					c.Acquire(locks[p])
				}
				c.BeginGlobal()
				for _, p := range pages {
					line := rng.Intn(64)
					va := heapVA(p, line*64)
					old := c.Load64(va)
					c.Store64(va, val^old>>48)
					expect[p][va] = val ^ old>>48
				}
				c.Commit()
				for j := len(pages) - 1; j >= 0; j-- {
					c.Release(locks[pages[j]])
				}
				continue
			}
			p := 1 + rng.Intn(sharedPages)
			c.Acquire(locks[p])
			c.Begin()
			line := rng.Intn(64)
			va := heapVA(p, line*64)
			c.Store64(va, val)
			expect[p][va] = val
			if rng.Intn(8) == 0 { // occasional rollback
				c.Abort()
				delete(expect[p], va)
			} else {
				c.Commit()
			}
			c.Release(locks[p])
		}
	})
	m.Drain()

	st := *m.Stats()
	if s, ok := m.Backend().(*core.SSP); ok {
		if msg := s.DebugCheckFrames(); msg != "" {
			t.Fatalf("SSP frame invariant violated: %s", msg)
		}
	}
	c0 := m.Core(0)
	for p := 1; p <= sharedPages; p++ {
		for va, want := range expect[p] {
			if got := c0.Load64(va); got != want {
				t.Errorf("%#x = %#x, want %#x", va, got, want)
			}
		}
	}
	if err := recycle(m); err != nil {
		t.Fatalf("post-run recovery: %v", err)
	}
	return st
}

// TestWindowedStressByteIdentical is the windowed run of the
// TestParallelLocalGlobalStress mix — 4 cores over 2 journal shards, lock-guarded
// shared pages, global multi-shard commits, plus aborts — with data, frame
// invariants and crash recovery audited, and the aggregate Stats required
// byte-identical between two runs of the same script.
func TestWindowedStressByteIdentical(t *testing.T) {
	txns := 250
	if testing.Short() {
		txns = 60
	}
	first := windowedStress(t, txns)
	second := windowedStress(t, txns)
	if first.Commits == 0 || first.Aborts == 0 || first.GlobalCommits == 0 {
		t.Fatalf("stress mix degenerate: commits %d aborts %d globals %d",
			first.Commits, first.Aborts, first.GlobalCommits)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("windowed stats diverged between identical runs:\nfirst:  %+v\nsecond: %+v", first, second)
	}
}

// TestParallelLocalGlobalStress stresses the commit path under -race: 4
// goroutine-backed free-running cores over 2 journal shards (two cores
// share each ring) run concurrent local and multi-shard global commits on
// lock-guarded shared pages. Data, the frame invariant and crash recovery
// are audited afterwards.
func TestParallelLocalGlobalStress(t *testing.T) {
	txns := 250
	if testing.Short() {
		txns = 60
	}
	const sharedPages = 8
	cfg := testConfig(SSP, stressCores)
	cfg.Layout.JournalShards = 2
	m := New(cfg)
	m.Heap().EnsureMapped(nil, 1, sharedPages)

	locks := make([]*Lock, sharedPages+1)
	expect := make([]map[uint64]uint64, sharedPages+1)
	for p := 1; p <= sharedPages; p++ {
		locks[p] = m.NewLock()
		expect[p] = map[uint64]uint64{}
	}
	m.ResetStats()

	m.Run(func(c *Core) {
		rng := engine.NewRNG(0x6B0C + uint64(c.ID())*0x9E3779B97F4A7C15)
		for i := 0; i < txns; i++ {
			val := uint64(c.ID()+1)<<32 | uint64(i+1)
			if rng.Intn(4) == 0 {
				n := 2 + rng.Intn(2)
				seen := map[int]bool{}
				var pages []int
				for len(pages) < n {
					p := 1 + rng.Intn(sharedPages)
					if !seen[p] {
						seen[p] = true
						pages = append(pages, p)
					}
				}
				sort.Ints(pages)
				for _, p := range pages {
					c.Acquire(locks[p])
				}
				c.BeginGlobal()
				for _, p := range pages {
					line := rng.Intn(64)
					va := heapVA(p, line*64)
					c.Store64(va, val)
					expect[p][va] = val
				}
				c.Commit()
				for j := len(pages) - 1; j >= 0; j-- {
					c.Release(locks[pages[j]])
				}
				continue
			}
			p := 1 + rng.Intn(sharedPages)
			c.Acquire(locks[p])
			c.Begin()
			line := rng.Intn(64)
			va := heapVA(p, line*64)
			c.Store64(va, val)
			expect[p][va] = val
			c.Commit()
			c.Release(locks[p])
		}
	})
	m.Drain()

	if st := m.Stats(); st.GlobalCommits == 0 || st.Commits == st.GlobalCommits {
		t.Fatalf("stress mix degenerate: commits %d globals %d", st.Commits, st.GlobalCommits)
	}
	if s, ok := m.Backend().(*core.SSP); ok {
		if msg := s.DebugCheckFrames(); msg != "" {
			t.Fatalf("SSP frame invariant violated: %s", msg)
		}
	}
	verify := func(stage string) {
		c0 := m.Core(0)
		for p := 1; p <= sharedPages; p++ {
			for va, want := range expect[p] {
				if got := c0.Load64(va); got != want {
					t.Errorf("%s: %#x = %#x, want %#x", stage, va, got, want)
				}
			}
		}
	}
	verify("post-run")

	if err := recycle(m); err != nil {
		t.Fatalf("post-parallel recovery: %v", err)
	}
	verify("post-recovery")
}
