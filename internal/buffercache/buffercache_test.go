package buffercache

import (
	"testing"

	"repro/internal/memsim"
	"repro/internal/stats"
)

// newTestCache builds a small buffer tier over a private memory system,
// caching the whole NVRAM range.
func newTestCache(t *testing.T, frames, shards int) (*Cache, *memsim.Memory, *stats.Sharded) {
	t.Helper()
	cfg := memsim.DefaultConfig()
	cfg.DRAMBytes = 1 << 20
	cfg.NVRAMBytes = 1 << 20
	sh := stats.NewSharded(1)
	mem := memsim.New(cfg, sh.Shared())
	c := New(Config{
		Frames: frames,
		Shards: shards,
		Lo:     cfg.NVRAMBase,
		Hi:     cfg.NVRAMBase + memsim.PAddr(cfg.NVRAMBytes),
	}, mem, sh)
	return c, mem, sh
}

func line(b byte) []byte {
	data := make([]byte, memsim.LineBytes)
	data[0] = b
	return data
}

func TestLRUEvictionOrder(t *testing.T) {
	c, _, _ := newTestCache(t, 2, 1)
	pageA := c.lo
	pageB := c.lo + memsim.PageBytes
	pageC := c.lo + 2*memsim.PageBytes
	buf := make([]byte, memsim.LineBytes)

	c.ReadLine(0, pageA, buf, 0)
	c.ReadLine(0, pageB, buf, 0)
	c.ReadLine(0, pageA, buf, 0) // hit: A is now the most recently used
	c.ReadLine(0, pageC, buf, 0) // must evict B, the LRU frame
	if _, f := c.lookup(pageB); f != nil {
		t.Error("LRU page B survived the eviction")
	}
	if _, f := c.lookup(pageA); f == nil {
		t.Error("recently-used page A was evicted instead of B")
	}
	if _, f := c.lookup(pageC); f == nil {
		t.Error("page C not resident after its fill")
	}
}

func TestDirtyWriteBackExactlyOnce(t *testing.T) {
	c, mem, sh := newTestCache(t, 1, 1)
	pageA := c.lo
	pageB := c.lo + memsim.PageBytes
	pageC := c.lo + 2*memsim.PageBytes
	buf := make([]byte, memsim.LineBytes)

	c.EvictLine(0, pageA, line(0x5A), 0, stats.CatData)
	st := sh.Shard(0)
	if st.DRAMCacheAbsorbed != 1 {
		t.Fatalf("absorbed = %d, want 1", st.DRAMCacheAbsorbed)
	}
	mem.Peek(pageA, buf)
	if buf[0] != 0 {
		t.Fatal("absorbed write-back reached NVRAM before eviction")
	}

	c.ReadLine(0, pageB, buf, 0) // evicts A's dirty frame
	if st.DRAMCacheWriteBacks != 1 {
		t.Errorf("write-backs = %d after dirty eviction, want 1", st.DRAMCacheWriteBacks)
	}
	mem.Peek(pageA, buf)
	if buf[0] != 0x5A {
		t.Error("dirty eviction did not write the absorbed bytes back")
	}

	c.ReadLine(0, pageC, buf, 0) // evicts B's clean frame
	if st.DRAMCacheWriteBacks != 1 {
		t.Errorf("write-backs = %d after clean eviction, want still 1", st.DRAMCacheWriteBacks)
	}
	if st.DRAMCacheEvictions != 2 {
		t.Errorf("evictions = %d, want 2", st.DRAMCacheEvictions)
	}
}

func TestHardenClearsDirtyBeforeEviction(t *testing.T) {
	c, mem, sh := newTestCache(t, 1, 1)
	pageA := c.lo
	pageB := c.lo + memsim.PageBytes
	buf := make([]byte, memsim.LineBytes)

	c.EvictLine(0, pageA, line(0x77), 0, stats.CatData)
	if _, ok := c.HardenLine(0, pageA, 0, stats.CatData); !ok {
		t.Fatal("HardenLine found no dirty copy")
	}
	mem.Peek(pageA, buf)
	if buf[0] != 0x77 {
		t.Error("HardenLine did not write the dirty bytes through")
	}
	if _, ok := c.HardenLine(0, pageA, 0, stats.CatData); ok {
		t.Error("second HardenLine of a now-clean line reported work")
	}
	st := sh.Shard(0)
	if st.DRAMCacheHardens != 1 {
		t.Errorf("hardens = %d, want 1", st.DRAMCacheHardens)
	}
	c.ReadLine(0, pageB, buf, 0) // evicts A, now clean
	if st.DRAMCacheWriteBacks != 0 {
		t.Errorf("write-backs = %d after hardened eviction, want 0", st.DRAMCacheWriteBacks)
	}
}

func TestDropAllDiscardsDirtyData(t *testing.T) {
	c, mem, _ := newTestCache(t, 4, 1)
	pageA := c.lo
	buf := make([]byte, memsim.LineBytes)

	c.EvictLine(0, pageA, line(0x33), 0, stats.CatData)
	c.DropAll()
	mem.Peek(pageA, buf)
	if buf[0] != 0 {
		t.Error("DropAll leaked a dirty absorbed line into NVRAM")
	}
	if _, f := c.lookup(pageA); f != nil {
		t.Error("frame still mapped after DropAll")
	}
	// The pool is whole again: a fresh fill must find a free frame.
	c.ReadLine(0, pageA, buf, 0)
	if _, f := c.lookup(pageA); f == nil {
		t.Error("no free frame after DropAll")
	}
}

func TestOutOfRangePassesThrough(t *testing.T) {
	c, mem, sh := newTestCache(t, 2, 1)
	dram := memsim.PAddr(512 << 10) // below lo: plain DRAM, not buffered
	buf := make([]byte, memsim.LineBytes)

	c.ReadLine(0, dram, buf, 0)
	c.EvictLine(0, dram, line(9), 0, stats.CatData)
	st := sh.Shard(0)
	if st.DRAMCacheReads != 0 || st.DRAMCacheAbsorbed != 0 {
		t.Error("out-of-range traffic touched the buffer counters")
	}
	mem.Peek(dram, buf)
	if buf[0] != 9 {
		t.Error("out-of-range write did not pass through")
	}
}

func TestAccountingIdentity(t *testing.T) {
	c, _, sh := newTestCache(t, 8, 2)
	buf := make([]byte, memsim.LineBytes)
	// A mixed stream over more pages than frames: every read is a hit or a
	// miss, nothing else.
	for i := 0; i < 400; i++ {
		page := c.lo + memsim.PAddr((i*7)%24)*memsim.PageBytes
		off := memsim.PAddr((i % 4) * memsim.LineBytes)
		c.ReadLine(0, page+off, buf, 0)
	}
	st := sh.Shard(0)
	if st.DRAMCacheReads == 0 {
		t.Fatal("no buffered reads recorded")
	}
	if st.DRAMCacheHits+st.DRAMCacheMisses != st.DRAMCacheReads {
		t.Errorf("hits %d + misses %d != reads %d",
			st.DRAMCacheHits, st.DRAMCacheMisses, st.DRAMCacheReads)
	}
}
