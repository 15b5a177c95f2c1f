package machine

import (
	"testing"

	"repro/internal/core"
)

// Machine-level tests of the DRAM buffer tier (Config.DRAMCacheFrames) and
// of SSP's page consolidation: the counter identities under real
// cache-hierarchy traffic, crash semantics, and data preservation across
// consolidations. The per-frame mechanics are unit tested in
// internal/buffercache; the crash windows are swept by internal/crashsweep.

// cacheConfig shrinks the L3 so a ~1 MiB working set spills into the buffer
// tier.
func cacheConfig(frames int) Config {
	cfg := testConfig(SSP, 1)
	cfg.Cache.L3Bytes = 128 << 10
	cfg.DRAMCacheFrames = frames
	return cfg
}

func TestDRAMCacheAccountingIdentity(t *testing.T) {
	m := New(cacheConfig(64))
	c := m.Core(0)
	// 96 pages = 384 KiB, three times the shrunken L3 but within the test
	// config's SSP slot pool.
	const pages = 96
	m.Heap().EnsureMapped(nil, 0, pages-1)

	// Non-transactional stores dirty one line per page and strided loads
	// force refills; with the working set far past the LLC, victims and
	// misses both land in the buffer tier.
	for round := 0; round < 4; round++ {
		for p := 0; p < pages; p++ {
			c.Store64(heapVA(p, 0), uint64(round+1))
			_ = c.Load64(heapVA((p*67)%pages, 128))
		}
	}
	m.Drain()

	st := m.Stats()
	if st.DRAMCacheReads == 0 {
		t.Fatal("no buffered reads: the traffic never reached the buffer tier")
	}
	if st.DRAMCacheHits+st.DRAMCacheMisses != st.DRAMCacheReads {
		t.Errorf("hits %d + misses %d != reads %d",
			st.DRAMCacheHits, st.DRAMCacheMisses, st.DRAMCacheReads)
	}
	if st.DRAMCacheHits == 0 {
		t.Error("no buffer hits over a re-read working set")
	}
	if st.DRAMCacheAbsorbed == 0 {
		t.Error("no victim write-backs absorbed")
	}
	if msg := m.DebugValidateCaches(); msg != "" {
		t.Fatalf("cache invariant violated: %s", msg)
	}
}

func TestDRAMCacheCommittedSurvivesCrash(t *testing.T) {
	m := New(cacheConfig(64))
	c := m.Core(0)
	m.Heap().EnsureMapped(nil, 1, 2)

	c.Begin()
	c.Store64(heapVA(1, 0), 0xD00D)
	c.Commit()
	// A volatile store may sit absorbed (dirty, DRAM-only) when the power
	// fails; it is allowed to vanish — the committed value is not.
	c.Store64(heapVA(2, 0), 0xFEED)

	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	if v := c.Load64(heapVA(1, 0)); v != 0xD00D {
		t.Fatalf("committed value lost across crash with buffer tier on: %#x", v)
	}
}

func TestConsolidationPreservesData(t *testing.T) {
	cfg := testConfig(SSP, 1)
	// A tiny TLB cycles pages out of reach so they consolidate: every
	// committed line moves into one frame, then the page splits again.
	cfg.TLBEntries = 4
	cfg.STLBEntries = 0
	m := New(cfg)
	c := m.Core(0)
	const pages, lines = 16, 8
	m.Heap().EnsureMapped(nil, 0, pages-1)

	var want [pages][lines]uint64
	for i := 0; i < 400; i++ {
		p := i % pages
		li := (i / pages) % lines
		c.Begin()
		c.Store64(heapVA(p, li*64), uint64(i+1))
		c.Commit()
		want[p][li] = uint64(i + 1)
	}
	m.Drain()

	st := m.Stats()
	if st.Consolidations == 0 {
		t.Fatal("no page consolidated with a 4-entry TLB")
	}
	if s, ok := m.Backend().(*core.SSP); ok {
		if msg := s.DebugCheckFrames(); msg != "" {
			t.Fatalf("frame invariant violated after consolidation: %s", msg)
		}
	}
	check := func(when string) {
		for p := 0; p < pages; p++ {
			for li := 0; li < lines; li++ {
				if v := c.Load64(heapVA(p, li*64)); v != want[p][li] {
					t.Fatalf("%s: page %d line %d = %#x, want %#x", when, p, li, v, want[p][li])
				}
			}
		}
	}
	check("after consolidations")
	if err := m.Recover(); err != nil {
		t.Fatal(err)
	}
	check("after crash+recovery")
	t.Logf("consolidations: %d", st.Consolidations)
}
