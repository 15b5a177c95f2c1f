// Package buffercache is a pager-style DRAM buffer tier between the CPU
// cache hierarchy and the NVRAM of memsim — the front-end every real NVRAM
// deployment runs that the paper's bare model omits. It implements
// cachesim.Mem, so internal/cachesim routes all sub-L3 traffic through it.
//
// Shape (the classic pager): a pool of 4 KiB DRAM frames, a frame table
// mapping NVRAM data pages to frames, per-shard LRU eviction and a free
// list, with dirty lines written back to NVRAM before a frame is
// reused. The pool is sharded by page address — one shard per core by
// default — so the serve path takes no lock of its own (all calls arrive
// from inside a cachesim operation, and those run one at a time; sharding
// bounds eviction scan cost and keeps hot sets of different cores from
// thrashing one LRU list).
//
// Only the data frame pool ([vm.Layout.FramePoolBase, FramePoolEnd)) is
// cached. Journal, log, slot-array and page-table traffic passes straight
// through to memsim: those regions are the durability mechanism itself and
// must never be absorbed.
//
// Timing: frames live at real DRAM addresses of the simulated memory
// (frame i occupies DRAM page i, a range nothing else uses), so hits,
// fills and absorbs charge genuine DRAM bank/bus occupancy in memsim while
// NVRAM banks stay idle — the modelled win.
//
// Crash correctness contract (trap-swept by internal/crashsweep):
//
//   - A clean buffered line always equals the durable NVRAM bytes, so
//     serving it from DRAM is value-transparent.
//   - A dirty buffered line exists only for legally-volatile data: a
//     victim write-back absorbed from the CPU caches (EvictLine), whose
//     bytes nothing above required to be durable. DropAll (power loss)
//     discards it — exactly what a volatile DRAM tier does.
//   - Data that must be durable arrives via PersistLine (commit clwb),
//     which always writes NVRAM through, or is hardened by HardenLine when
//     a commit fence covers a line whose only dirty copy was absorbed
//     here. Committed data is therefore never only-in-DRAM past its fence.
package buffercache

import (
	"fmt"
	"math/bits"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
)

// Config sizes the buffer tier.
type Config struct {
	// Frames is the total DRAM frame count (4 KiB each). The frames' DRAM
	// image occupies [0, Frames*PageBytes), which must fit the simulated
	// DRAM capacity.
	Frames int
	// Shards is the number of independent frame partitions (default: one
	// per core, capped so every shard keeps at least one frame).
	Shards int
	// Lo, Hi bound the cached NVRAM range: [Lo, Hi) — the data frame pool.
	// Addresses outside pass through uncached.
	Lo, Hi memsim.PAddr
}

// frame is one DRAM page frame.
type frame struct {
	page  memsim.PAddr // NVRAM page base currently cached; valid while mapped
	buf   memsim.PAddr // DRAM base address of this frame (immutable)
	valid uint64       // per-line valid mask
	dirty uint64       // per-line dirty mask (absorbed write-backs)
	lru   uint64
}

// shard is one independent frame partition with its own table, free list
// and LRU clock.
type shard struct {
	frames []frame
	table  map[memsim.PAddr]int // NVRAM page base -> index into frames
	free   []int
	tick   uint64
}

// Cache is the buffer tier. It takes no host lock: every method is invoked
// inside a cachesim operation, on the invoking core's goroutine (see the
// stats.Sharded ownership note on New).
type Cache struct {
	mem    *memsim.Memory
	st     *stats.Sharded
	lo, hi memsim.PAddr
	shards []*shard
}

// New builds a buffer tier of cfg.Frames frames over mem, restricted to
// [cfg.Lo, cfg.Hi). Per-core counters (hits, misses, absorbs, ...) are
// written to sh's shard of the invoking core; since every call comes from
// inside a cachesim operation, which runs one at a time in the scheduler's
// grant order, these writes are serialised even when the invoking core
// differs from the shard owner's goroutine — the fields are touched nowhere
// else.
func New(cfg Config, mem *memsim.Memory, sh *stats.Sharded) *Cache {
	if cfg.Frames <= 0 {
		panic(fmt.Sprintf("buffercache: Frames is %d, want > 0", cfg.Frames))
	}
	if uint64(cfg.Frames)*memsim.PageBytes > mem.Config().DRAMBytes {
		panic(fmt.Sprintf("buffercache: %d frames need %d bytes but DRAM has %d",
			cfg.Frames, cfg.Frames*memsim.PageBytes, mem.Config().DRAMBytes))
	}
	ns := cfg.Shards
	if ns <= 0 {
		ns = sh.Cores()
	}
	if ns > cfg.Frames {
		ns = cfg.Frames
	}
	c := &Cache{mem: mem, st: sh, lo: cfg.Lo, hi: cfg.Hi, shards: make([]*shard, ns)}
	for i := range c.shards {
		c.shards[i] = &shard{table: make(map[memsim.PAddr]int)}
	}
	// Deal the frames round-robin so shard sizes differ by at most one.
	for f := 0; f < cfg.Frames; f++ {
		s := c.shards[f%ns]
		s.frames = append(s.frames, frame{buf: memsim.PAddr(f) * memsim.PageBytes})
		s.free = append(s.free, len(s.frames)-1)
	}
	return c
}

// Frames returns the configured frame count (test helper).
func (c *Cache) Frames() int {
	n := 0
	for _, s := range c.shards {
		n += len(s.frames)
	}
	return n
}

// cached reports whether pa falls in the buffered range.
func (c *Cache) cached(pa memsim.PAddr) bool { return pa >= c.lo && pa < c.hi }

// shardOf returns the shard owning pa's page. Pages hash across shards by
// page number so one core's sequential working set still spreads.
func (c *Cache) shardOf(page memsim.PAddr) *shard {
	return c.shards[uint64(page>>memsim.PageShift)%uint64(len(c.shards))]
}

// lookup returns pa's frame, or nil.
func (c *Cache) lookup(page memsim.PAddr) (*shard, *frame) {
	s := c.shardOf(page)
	if i, ok := s.table[page]; ok {
		return s, &s.frames[i]
	}
	return s, nil
}

// touch refreshes f's LRU position in s.
func (s *shard) touch(f *frame) {
	s.tick++
	f.lru = s.tick
}

// ensureFrame returns a frame holding pa's page, allocating (and evicting
// the shard's least recently used frame, writing its dirty lines back to
// NVRAM at `at`) as needed.
func (c *Cache) ensureFrame(core int, page memsim.PAddr, at engine.Cycles) *frame {
	s, f := c.lookup(page)
	if f != nil {
		s.touch(f)
		return f
	}
	var idx int
	switch {
	case len(s.free) > 0:
		idx = s.free[len(s.free)-1]
		s.free = s.free[:len(s.free)-1]
	default:
		for i := range s.frames {
			if s.frames[i].lru < s.frames[idx].lru {
				idx = i
			}
		}
		c.evictFrame(core, s, idx, at)
	}
	f = &s.frames[idx]
	f.page, f.valid, f.dirty = page, 0, 0
	s.table[page] = idx
	s.touch(f)
	return f
}

// evictFrame writes frame idx's dirty lines back to NVRAM (CatData;
// completion not waited on — a background write-back, like an L3 victim)
// and unmaps it.
func (c *Cache) evictFrame(core int, s *shard, idx int, at engine.Cycles) {
	f := &s.frames[idx]
	st := c.st.Shard(core)
	st.DRAMCacheEvictions++
	var buf [memsim.LineBytes]byte
	for d := f.dirty; d != 0; {
		li := bits.TrailingZeros64(d)
		d &^= 1 << uint(li)
		off := memsim.PAddr(li * memsim.LineBytes)
		c.mem.Peek(f.buf+off, buf[:])
		c.mem.WriteLine(f.page+off, buf[:], at, stats.CatData)
		st.DRAMCacheWriteBacks++
	}
	delete(s.table, f.page)
	f.valid, f.dirty = 0, 0
}

// ---------------------------------------------------------------------------
// cachesim.Mem implementation.

// ReadLine serves a data-range line from its DRAM frame when buffered
// (DRAM timing) or fills it from NVRAM (NVRAM timing, then cached clean).
func (c *Cache) ReadLine(core int, pa memsim.PAddr, buf []byte, at engine.Cycles) engine.Cycles {
	if !c.cached(pa) {
		return c.mem.ReadLine(pa, buf, at)
	}
	page := memsim.PageAddr(pa)
	off := pa - page
	li := memsim.LineIndex(pa)
	st := c.st.Shard(core)
	st.DRAMCacheReads++
	s, f := c.lookup(page)
	if f != nil && f.valid&(1<<uint(li)) != 0 {
		st.DRAMCacheHits++
		s.touch(f)
		return c.mem.ReadLine(f.buf+off, buf, at)
	}
	st.DRAMCacheMisses++
	done := c.mem.ReadLine(pa, buf, at)
	// Fill the frame clean; the DRAM write's completion is not waited on
	// (fill engines run behind the demand read).
	f = c.ensureFrame(core, page, at)
	c.mem.WriteLine(f.buf+off, buf, at, stats.CatData)
	f.valid |= 1 << uint(li)
	f.dirty &^= 1 << uint(li)
	return done
}

// EvictLine absorbs a CPU-cache victim write-back in DRAM: the line lands
// dirty in its frame and no NVRAM write happens. Nothing above waits on or
// requires durability of a victim write-back, so the bytes are legally
// volatile until a fence hardens them (HardenLine) or the frame is evicted.
func (c *Cache) EvictLine(core int, pa memsim.PAddr, data []byte, at engine.Cycles, cat stats.WriteCat) {
	if !c.cached(pa) {
		c.mem.WriteLine(pa, data, at, cat)
		return
	}
	page := memsim.PageAddr(pa)
	f := c.ensureFrame(core, page, at)
	li := memsim.LineIndex(pa)
	off := pa - page
	c.mem.WriteLine(f.buf+off, data, at, cat)
	f.valid |= 1 << uint(li)
	f.dirty |= 1 << uint(li)
	c.st.Shard(core).DRAMCacheAbsorbed++
}

// PersistLine writes the line through to NVRAM (it must become durable; the
// returned completion is what the commit fence waits on) and refreshes any
// buffered copy clean, write-allocating so the hot committed working set
// serves later reads from DRAM.
func (c *Cache) PersistLine(core int, pa memsim.PAddr, data []byte, at engine.Cycles, cat stats.WriteCat) engine.Cycles {
	done := c.mem.WriteLine(pa, data, at, cat)
	if !c.cached(pa) {
		return done
	}
	page := memsim.PageAddr(pa)
	f := c.ensureFrame(core, page, at)
	li := memsim.LineIndex(pa)
	c.mem.WriteLine(f.buf+(pa-page), data, at, cat)
	f.valid |= 1 << uint(li)
	f.dirty &^= 1 << uint(li)
	return done
}

// HardenLine writes a dirty buffered copy of pa's line through to NVRAM —
// the commit-fence backstop closing the absorb-then-commit window (a line
// spilled from L3 before its transaction committed lives dirty only here;
// the commit's fence must not complete with the committed bytes
// DRAM-only).
func (c *Cache) HardenLine(core int, pa memsim.PAddr, at engine.Cycles, cat stats.WriteCat) (engine.Cycles, bool) {
	if !c.cached(pa) {
		return at, false
	}
	page := memsim.PageAddr(pa)
	_, f := c.lookup(page)
	li := memsim.LineIndex(pa)
	if f == nil || f.dirty&(1<<uint(li)) == 0 {
		return at, false
	}
	off := pa - page
	var buf [memsim.LineBytes]byte
	c.mem.Peek(f.buf+off, buf[:])
	done := c.mem.WriteLine(page+off, buf[:], at, cat)
	f.dirty &^= 1 << uint(li)
	c.st.Shard(core).DRAMCacheHardens++
	return done, true
}

// DirtyLine reports whether pa's line is buffered dirty (not yet durable).
func (c *Cache) DirtyLine(pa memsim.PAddr) bool {
	if !c.cached(pa) {
		return false
	}
	_, f := c.lookup(memsim.PageAddr(pa))
	return f != nil && f.dirty&(1<<uint(memsim.LineIndex(pa))) != 0
}

// InjectLine refreshes a buffered copy with bytes just written durably to
// NVRAM (consolidation's copy engine). Untimed, clean, no allocation.
func (c *Cache) InjectLine(pa memsim.PAddr, data []byte) {
	if !c.cached(pa) {
		return
	}
	page := memsim.PageAddr(pa)
	_, f := c.lookup(page)
	if f == nil {
		return
	}
	li := memsim.LineIndex(pa)
	c.mem.Poke(f.buf+(pa-page), data[:memsim.LineBytes])
	f.valid |= 1 << uint(li)
	f.dirty &^= 1 << uint(li)
}

// Peek resolves the freshest bytes at pa without timing: the buffered copy
// when the line is valid (a dirty line is fresher than NVRAM; a clean one
// equals it), else the durable image. Must stay within one line.
func (c *Cache) Peek(pa memsim.PAddr, buf []byte) {
	if !c.cached(pa) {
		c.mem.Peek(pa, buf)
		return
	}
	page := memsim.PageAddr(pa)
	_, f := c.lookup(page)
	if f == nil || f.valid&(1<<uint(memsim.LineIndex(pa))) == 0 {
		c.mem.Peek(pa, buf)
		return
	}
	c.mem.Peek(f.buf+(pa-page), buf)
}

// DropAll discards every frame without write-back: the moment of power
// loss. Dirty absorbed lines vanish, exactly as volatile DRAM contents do.
func (c *Cache) DropAll() {
	for _, s := range c.shards {
		s.table = make(map[memsim.PAddr]int)
		s.free = s.free[:0]
		for i := range s.frames {
			f := &s.frames[i]
			f.valid, f.dirty = 0, 0
			s.free = append(s.free, i)
		}
		s.tick = 0
	}
}
