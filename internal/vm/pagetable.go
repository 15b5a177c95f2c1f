package vm

import (
	"encoding/binary"
	"fmt"
	"sync"

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

	mu     sync.RWMutex
	mirror []memsim.PAddr // 0 = unmapped; reaches as far as the highest VPN ever mapped
}

// NewPageTable returns a page table over mem; the mirror starts empty
// (matching a freshly formatted image). Call Rebuild when booting from an
// existing image.
func NewPageTable(mem *memsim.Memory, l Layout) *PageTable {
	return &PageTable{mem: mem, layout: l}
}

// setMirror records vpn -> pa in the mirror, growing it to reach vpn. The
// caller holds mu.
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
	pt.mu.RLock()
	defer pt.mu.RUnlock()
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
	pt.mu.Lock()
	defer pt.mu.Unlock()
	pt.setMirror(vpn, pa)
}

// Rebuild reloads the mirror from the durable PTE array.
func (pt *PageTable) Rebuild() {
	buf := make([]byte, pt.layout.Cfg.MaxHeapPages*8)
	pt.mem.Peek(pt.layout.PageTableBase, buf)
	pt.mu.Lock()
	defer pt.mu.Unlock()
	clear(pt.mirror)
	for vpn := 0; vpn < len(buf)/8; vpn++ {
		pt.setMirror(vpn, memsim.PAddr(binary.LittleEndian.Uint64(buf[vpn*8:])))
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
	pt.mu.RLock()
	defer pt.mu.RUnlock()
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
// volatile: recovery rebuilds it by scanning the page table and SSP slots
// (frames lost between mapping and commit leak until then).
//
// The free pool is one conceptual stack, top first: the hot frames (Free,
// last in first out), then the frames no one has taken yet in ascending
// index order, then the cold frames (FreeCold, first in first out). The
// middle part is a cursor rather than a list, so neither building nor
// resetting the allocator, nor anything it does, walks the pool. A frame a
// Reserve took, or one that is listed twice, is still in the stack; Alloc
// skips an entry whose frame is in use when it surfaces.
type FrameAlloc struct {
	layout Layout

	mu       sync.Mutex
	hot      []int
	next     int // frames [next, layout.Frames) were never handed out
	cold     []int
	coldHead int    // cold[coldHead:] is the queue
	used     []bool // used[idx], for the frames up to the highest one ever taken
	inUse    int
}

// NewFrameAlloc returns an allocator with every frame free.
func NewFrameAlloc(l Layout) *FrameAlloc {
	return &FrameAlloc{layout: l}
}

// pop removes the top entry of the free stack.
func (fa *FrameAlloc) pop() (int, bool) {
	switch {
	case len(fa.hot) > 0:
		idx := fa.hot[len(fa.hot)-1]
		fa.hot = fa.hot[:len(fa.hot)-1]
		return idx, true
	case fa.next < fa.layout.Frames:
		fa.next++
		return fa.next - 1, true
	case fa.coldHead < len(fa.cold):
		fa.coldHead++
		return fa.cold[fa.coldHead-1], true
	}
	return 0, false
}

func (fa *FrameAlloc) isUsed(idx int) bool { return idx < len(fa.used) && fa.used[idx] }

// take marks a free frame used.
func (fa *FrameAlloc) take(idx int) {
	if idx >= len(fa.used) {
		fa.used = append(fa.used, make([]bool, idx+1-len(fa.used))...)
	}
	fa.used[idx] = true
	fa.inUse++
}

// release marks pa's frame free and returns its index.
func (fa *FrameAlloc) release(pa memsim.PAddr) int {
	idx := fa.layout.FrameIndex(pa)
	if !fa.isUsed(idx) {
		panic(fmt.Sprintf("vm: double free of frame %#x", pa))
	}
	fa.used[idx] = false
	fa.inUse--
	return idx
}

// Alloc returns a free frame's base address. It panics when the pool is
// exhausted (simulated machines are sized for their workloads).
func (fa *FrameAlloc) Alloc() memsim.PAddr {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	for {
		idx, ok := fa.pop()
		if !ok {
			panic("vm: NVRAM frame pool exhausted; raise Config.NVRAMBytes")
		}
		if !fa.isUsed(idx) {
			fa.take(idx)
			return fa.layout.FrameAddr(idx)
		}
	}
}

// Free returns a frame to the pool.
func (fa *FrameAlloc) Free(pa memsim.PAddr) {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	fa.hot = append(fa.hot, fa.release(pa))
}

// FreeCold returns a frame to the cold end of the pool, so it is reused
// only after every other free frame. Wear rotation retires hot frames this
// way: with the plain LIFO Free, a retired frame would be the very next
// Alloc's pick and the same physical frame would keep soaking up the hot
// page's writes.
func (fa *FrameAlloc) FreeCold(pa memsim.PAddr) {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	idx := fa.release(pa)
	if fa.coldHead > len(fa.cold)/2 { // drop the consumed prefix
		fa.cold = fa.cold[:copy(fa.cold, fa.cold[fa.coldHead:])]
		fa.coldHead = 0
	}
	fa.cold = append(fa.cold, idx)
}

// Reserve marks a frame used during recovery rebuilds; reserving an
// already-used frame is an error.
func (fa *FrameAlloc) Reserve(pa memsim.PAddr) {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	idx := fa.layout.FrameIndex(pa)
	if fa.isUsed(idx) {
		panic(fmt.Sprintf("vm: frame %#x reserved twice", pa))
	}
	fa.take(idx)
}

// Reset returns the allocator to the all-free state, then the caller
// re-reserves live frames (recovery).
func (fa *FrameAlloc) Reset() {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	fa.hot, fa.next = fa.hot[:0], 0
	fa.cold, fa.coldHead = fa.cold[:0], 0
	fa.used, fa.inUse = fa.used[:0], 0
}

// InUse returns the number of allocated frames.
func (fa *FrameAlloc) InUse() int {
	fa.mu.Lock()
	defer fa.mu.Unlock()
	return fa.inUse
}

// FreeCount returns the number of available frames.
func (fa *FrameAlloc) FreeCount() int { return fa.layout.Frames - fa.InUse() }
