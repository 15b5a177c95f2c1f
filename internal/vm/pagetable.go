package vm

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
)

// PageTable is the durable flat table mapping heap VPNs to frame base
// addresses. Updates are 8-byte atomic NVRAM writes (the hardware primitive
// BPFS-style designs rely on); a volatile mirror makes lookups cheap, and
// Rebuild reconstructs the mirror from the durable bytes after a crash.
type PageTable struct {
	mem    *memsim.Memory
	layout Layout

	mirror []memsim.PAddr // 0 = unmapped; reaches as far as the highest VPN ever mapped

	// rebuildReads counts the PTE pages Rebuild read. Only tests read it.
	rebuildReads int
}

// NewPageTable returns a page table over mem; the mirror starts empty
// (matching a freshly formatted image). Call Rebuild when booting from an
// existing image.
func NewPageTable(mem *memsim.Memory, l Layout) *PageTable {
	return &PageTable{mem: mem, layout: l}
}

// setMirror records vpn -> pa in the mirror, growing it to reach vpn.
func (pt *PageTable) setMirror(vpn int, pa memsim.PAddr) {
	if vpn < 0 || vpn >= pt.layout.Cfg.MaxHeapPages {
		panic(fmt.Sprintf("vm: out-of-range vpn %d", vpn))
	}
	if vpn >= len(pt.mirror) {
		if pa == 0 {
			return
		}
		pt.mirror = append(pt.mirror, make([]memsim.PAddr, vpn+1-len(pt.mirror))...)
	}
	pt.mirror[vpn] = pa
}

// Lookup returns the frame mapped at vpn, if any. No timing is charged;
// Walk is the timed variant used on TLB misses.
func (pt *PageTable) Lookup(vpn int) (memsim.PAddr, bool) {
	if vpn < 0 || vpn >= len(pt.mirror) {
		return 0, false
	}
	pa := pt.mirror[vpn]
	return pa, pa != 0
}

// Walk performs a timed page-table walk for vpn: the PTE's line is read
// from memory (page walks miss the cache hierarchy in our model, a
// conservative simplification) and the translation returned.
func (pt *PageTable) Walk(vpn int, at engine.Cycles) (memsim.PAddr, engine.Cycles, bool) {
	pa, ok := pt.Lookup(vpn)
	if !ok {
		return 0, at, false
	}
	var buf [memsim.LineBytes]byte
	done := pt.mem.ReadLine(pt.layout.PTEAddr(vpn), buf[:], at)
	return pa, done, true
}

// Set durably maps vpn to frame pa (0 unmaps) with an 8-byte atomic write
// and returns its completion time.
func (pt *PageTable) Set(vpn int, pa memsim.PAddr, at engine.Cycles) engine.Cycles {
	pt.SetMirror(vpn, pa)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(pa))
	return pt.mem.WriteBytes(pt.layout.PTEAddr(vpn), buf[:], at, stats.CatControl)
}

// SetMirror updates only the volatile mirror; recovery uses it when the
// durable repair is journaled separately.
func (pt *PageTable) SetMirror(vpn int, pa memsim.PAddr) {
	pt.setMirror(vpn, pa)
}

// Rebuild reloads the mirror from the durable PTE array, reading it through
// a one-page window. It reads only the PTE pages NVRAM holds — a page never
// written maps nothing — and sets only the entries that map a frame, so a
// rebuild costs the page table's written pages, not MaxHeapPages.
func (pt *PageTable) Rebuild() {
	var win [memsim.PageBytes]byte
	clear(pt.mirror)
	for first := 0; first < pt.layout.Cfg.MaxHeapPages; first += len(win) / 8 {
		pa := pt.layout.PTEAddr(first)
		if !pt.mem.Written(pa) {
			continue
		}
		pt.rebuildReads++
		n := min(len(win)/8, pt.layout.Cfg.MaxHeapPages-first)
		pt.mem.Peek(pa, win[:n*8])
		for i := 0; i < n; i++ {
			if e := binary.LittleEndian.Uint64(win[i*8:]); e != 0 {
				pt.setMirror(first+i, memsim.PAddr(e))
			}
		}
	}
}

// Mapped returns every mapped (vpn, frame) pair in vpn order.
func (pt *PageTable) Mapped() [](struct {
	VPN   int
	Frame memsim.PAddr
}) {
	var out [](struct {
		VPN   int
		Frame memsim.PAddr
	})
	for vpn, pa := range pt.mirror {
		if pa != 0 {
			out = append(out, struct {
				VPN   int
				Frame memsim.PAddr
			}{vpn, pa})
		}
	}
	return out
}

// FrameAlloc hands out physical frames from the pool. Allocation state is
// volatile: recovery rebuilds it (Rebuild) from the page table and the SSP
// slots' spares (frames lost between mapping and commit leak until then).
// Frames are never returned: a heap page keeps its frame once mapped, and
// SSP moves a page's second frame between its own slots. So the pool is a
// cursor over the frame indices, ascending, beside an in-use bitmap; Alloc
// skips the frames a rebuild or a range reservation took. Neither building
// nor resetting the allocator walks the pool.
type FrameAlloc struct {
	layout Layout

	next  int      // frames [next, layout.Frames) were never handed out
	used  []uint64 // bit idx: frame idx is in use; words up to the highest frame ever taken
	inUse int
}

// NewFrameAlloc returns an allocator with every frame free.
func NewFrameAlloc(l Layout) *FrameAlloc {
	return &FrameAlloc{layout: l}
}

func (fa *FrameAlloc) isUsed(idx int) bool {
	return idx>>6 < len(fa.used) && fa.used[idx>>6]&(1<<(idx&63)) != 0
}

// grow extends the in-use bits to cover frames [0, n).
func (fa *FrameAlloc) grow(n int) {
	if w := (n + 63) >> 6; w > len(fa.used) {
		fa.used = append(fa.used, make([]uint64, w-len(fa.used))...)
	}
}

// take marks a free frame used.
func (fa *FrameAlloc) take(idx int) {
	fa.grow(idx + 1)
	fa.used[idx>>6] |= 1 << (idx & 63)
	fa.inUse++
}

// Alloc returns a free frame's base address. It panics when the pool is
// exhausted (simulated machines are sized for their workloads).
func (fa *FrameAlloc) Alloc() memsim.PAddr {
	for fa.next < fa.layout.Frames {
		idx := fa.next
		fa.next++
		if !fa.isUsed(idx) {
			fa.take(idx)
			return fa.layout.FrameAddr(idx)
		}
	}
	panic("vm: NVRAM frame pool exhausted; raise Config.NVRAMBytes")
}

// reserve marks a free frame used; reserving an already-used frame is an
// error.
func (fa *FrameAlloc) reserve(pa memsim.PAddr) {
	idx := fa.layout.FrameIndex(pa)
	if fa.isUsed(idx) {
		panic(fmt.Sprintf("vm: frame %#x reserved twice", pa))
	}
	fa.take(idx)
}

// ReserveRange marks the free frames of pool indices [lo, hi) used, in one
// step: no per-frame Alloc, and when the range starts at the never-allocated
// cursor the cursor moves past it, so the next Alloc hands out frame hi. SSP
// reserves its cache's spare frames this way (frame i is slot i's spare
// until the slot's first journaled state says otherwise). Reserving a used
// frame panics, as in Rebuild.
func (fa *FrameAlloc) ReserveRange(lo, hi int) {
	if lo >= hi {
		return
	}
	if lo < 0 || hi > fa.layout.Frames {
		panic(fmt.Sprintf("vm: frame range [%d, %d) outside the pool of %d frames; raise Config.NVRAMBytes", lo, hi, fa.layout.Frames))
	}
	if idx := fa.reserveRange(lo, hi); idx >= 0 {
		panic(fmt.Sprintf("vm: frame %#x reserved twice", fa.layout.FrameAddr(idx)))
	}
}

// reserveRange is ReserveRange of a range inside the pool. It returns -1, or
// the first frame of the range that was already used, leaving the frames
// before it marked.
func (fa *FrameAlloc) reserveRange(lo, hi int) int {
	if lo >= hi {
		return -1
	}
	fa.grow(hi)
	for idx := lo; idx < hi; {
		// m holds the range's frames in idx's word.
		w, end := idx>>6, min(hi, idx|63+1)
		m := ^uint64(0) >> (64 - (end - idx)) << (idx & 63)
		if u := fa.used[w] & m; u != 0 {
			first := bits.TrailingZeros64(u)
			fa.used[w] |= m & (1<<first - 1)
			return w<<6 | first
		}
		fa.used[w] |= m
		idx = end
	}
	fa.inUse += hi - lo
	if fa.next == lo {
		fa.next = hi
	}
	return -1
}

// DebugUsed returns the pool index of every frame in use, ascending
// (tests compare two allocators' states with it).
func (fa *FrameAlloc) DebugUsed() []int {
	var out []int
	for w, u := range fa.used {
		for ; u != 0; u &= u - 1 {
			out = append(out, w<<6|bits.TrailingZeros64(u))
		}
	}
	return out
}

// reset returns the allocator to the all-free state.
func (fa *FrameAlloc) reset() {
	fa.next = 0
	fa.used, fa.inUse = fa.used[:0], 0
}

// Rebuild is recovery's rebuild of the allocation state, which is volatile:
// every frame is free again except those pt maps, spare(i) for each
// i < spares, and pool frames [spares, formatted) — the spares of the SSP
// slots recovery decoded no state for, frame i for slot i — reserved in one
// range step. What it reads is durable and may be corrupt, so where
// the internal reserve steps panic Rebuild returns an error naming the
// claimants and the value: a PTE that is not a frame base in the pool, and a
// frame claimed twice (by two VPNs, or by a VPN and a spare).
func (fa *FrameAlloc) Rebuild(pt *PageTable, spares, formatted int, spare func(i int) memsim.PAddr) error {
	fa.reset()
	// claimant names what already holds frame pa; only an error pays the
	// scan.
	claimant := func(pa memsim.PAddr) string {
		for vpn, m := range pt.mirror {
			if m == pa {
				return fmt.Sprintf("vpn %d", vpn)
			}
		}
		for i := 0; i < spares; i++ {
			if spare(i) == pa {
				return fmt.Sprintf("slot %d's spare", i)
			}
		}
		return "the spare of a slot with no state"
	}
	for vpn, pa := range pt.mirror {
		switch {
		case pa == 0:
		case !fa.layout.isFrameBase(pa):
			return fmt.Errorf("vm: vpn %d maps %#x, which is not a frame base in the pool", vpn, pa)
		case fa.isUsed(fa.layout.FrameIndex(pa)):
			return fmt.Errorf("vm: frame %#x is mapped by %s and by vpn %d", pa, claimant(pa), vpn)
		default:
			fa.reserve(pa)
		}
	}
	for i := 0; i < spares; i++ {
		switch pa := spare(i); {
		case !fa.layout.isFrameBase(pa):
			return fmt.Errorf("vm: slot %d's spare %#x is not a frame base in the pool", i, pa)
		case fa.isUsed(fa.layout.FrameIndex(pa)):
			return fmt.Errorf("vm: frame %#x is %s and slot %d's spare", pa, claimant(pa), i)
		default:
			fa.reserve(pa)
		}
	}
	if idx := fa.reserveRange(spares, formatted); idx >= 0 {
		pa := fa.layout.FrameAddr(idx)
		return fmt.Errorf("vm: frame %#x is %s and slot %d's spare", pa, claimant(pa), idx)
	}
	return nil
}

// InUse returns the number of allocated frames.
func (fa *FrameAlloc) InUse() int {
	return fa.inUse
}
