// Package pheap is the persistent heap allocator used by every workload: a
// bump region plus per-size-class free lists whose metadata (bump pointer,
// list heads, roots) lives in the first page of the persistent heap and is
// updated *inside* the enclosing transaction. The allocator therefore
// recovers for free: whatever transaction created or freed an object also
// made the allocator state durable, atomically.
//
// Mnemosyne-style systems leave allocator persistence to the runtime; the
// paper inherits that model. Building it on the transactional API both
// exercises the mechanism under test and removes a class of recovery
// leaks.
package pheap

import (
	"fmt"

	"repro/internal/memsim"
	"repro/internal/vm"
)

// Tx is the slice of the transactional API the allocator needs; implemented
// by the machine's per-core transaction handle.
type Tx interface {
	Load64(va uint64) uint64
	Store64(va uint64, v uint64)
}

// Metadata layout within the heap's first page (all virtual addresses):
//
//	+0    bump pointer (next unallocated VA)
//	+8    heap limit (first VA past the heap)
//	+64   roots: RootSlots × 8 B, one per cache line group
//	+576  free-list heads: one per size class
const (
	bumpOff  = 0
	limitOff = 8
	rootsOff = 64
	// RootSlots is the number of named persistent roots.
	RootSlots = 64
	classOff  = rootsOff + RootSlots*8
)

// Size classes: 16..2048 bytes, powers of two; larger allocations take
// whole pages from the bump region.
var classes = []int{16, 32, 64, 128, 256, 512, 1024, 2048}

// Heap is a handle on the persistent heap; it holds no volatile allocator
// state of its own.
type Heap struct {
	// EnsureMapped maps heap pages [first,last] (inclusive VPNs) to frames
	// outside transactional semantics; mapping an untouched page is
	// crash-safe (a leaked frame at worst, reclaimed by recovery's sweep).
	// tx is the transaction handle the allocator was invoked with (nil from
	// quiescent setup paths); the machine ignores it.
	EnsureMapped func(tx Tx, firstVPN, lastVPN int)
}

// MetaVA returns the virtual address of metadata offset off.
func MetaVA(off int) uint64 { return vm.HeapBase + uint64(off) }

// RootVA returns the virtual address of root slot i.
func RootVA(i int) uint64 {
	if i < 0 || i >= RootSlots {
		panic(fmt.Sprintf("pheap: root slot %d out of range", i))
	}
	return MetaVA(rootsOff + i*8)
}

func classFor(size int) int {
	for i, c := range classes {
		if size <= c {
			return i
		}
	}
	return -1
}

// Format initialises allocator metadata inside tx (the machine's
// initialisation transaction). maxPages bounds the heap.
func (h *Heap) Format(tx Tx, maxPages int) {
	tx.Store64(MetaVA(bumpOff), vm.HeapBase+memsim.PageBytes)
	tx.Store64(MetaVA(limitOff), vm.HeapBase+uint64(maxPages)*memsim.PageBytes)
	for i := range classes {
		tx.Store64(MetaVA(classOff+i*8), 0)
	}
	for i := 0; i < RootSlots; i++ {
		tx.Store64(RootVA(i), 0)
	}
}

// Alloc returns the VA of a new block of at least size bytes, carving it
// from a free list or the bump region. It must run inside a transaction.
// Blocks are 16-byte aligned and never split or coalesced (fixed-class
// segregated storage).
func (h *Heap) Alloc(tx Tx, size int) uint64 {
	if size <= 0 {
		panic("pheap: Alloc of non-positive size")
	}
	ci := classFor(size)
	if ci >= 0 {
		headVA := MetaVA(classOff + ci*8)
		if head := tx.Load64(headVA); head != 0 {
			next := tx.Load64(head)
			tx.Store64(headVA, next)
			return head
		}
		return h.bump(tx, classes[ci])
	}
	// Page-granular allocation for big blocks.
	pages := (size + memsim.PageBytes - 1) / memsim.PageBytes
	return h.bumpPages(tx, pages)
}

// bump carves size (a class size, power of two ≤ 2048) from the bump
// region, never straddling a page boundary so objects stay within pages of
// their class run.
func (h *Heap) bump(tx Tx, size int) uint64 {
	bumpVA := MetaVA(bumpOff)
	b := tx.Load64(bumpVA)
	if rem := int(b % memsim.PageBytes); rem != 0 && rem+size > memsim.PageBytes {
		b += uint64(memsim.PageBytes - rem)
	}
	h.checkLimit(tx, b+uint64(size))
	h.EnsureMapped(tx, vm.VPNOf(b), vm.VPNOf(b+uint64(size)-1))
	tx.Store64(bumpVA, b+uint64(size))
	return b
}

func (h *Heap) bumpPages(tx Tx, pages int) uint64 {
	bumpVA := MetaVA(bumpOff)
	b := tx.Load64(bumpVA)
	if rem := b % memsim.PageBytes; rem != 0 {
		b += memsim.PageBytes - rem
	}
	size := uint64(pages) * memsim.PageBytes
	h.checkLimit(tx, b+size)
	h.EnsureMapped(tx, vm.VPNOf(b), vm.VPNOf(b+size-1))
	tx.Store64(bumpVA, b+size)
	return b
}

func (h *Heap) checkLimit(tx Tx, end uint64) {
	if end > tx.Load64(MetaVA(limitOff)) {
		panic("pheap: persistent heap exhausted; raise NVRAMBytes/MaxHeapPages")
	}
}

// Free returns a class-sized block to its free list. Page-granular blocks
// cannot be freed (arena semantics), matching the workloads' needs.
func (h *Heap) Free(tx Tx, va uint64, size int) {
	ci := classFor(size)
	if ci < 0 {
		panic("pheap: Free of a page-granular block")
	}
	headVA := MetaVA(classOff + ci*8)
	head := tx.Load64(headVA)
	tx.Store64(va, head)
	tx.Store64(headVA, va)
}

// ClassSizes exposes the size classes (tests, docs).
func ClassSizes() []int {
	out := make([]int, len(classes))
	copy(out, classes)
	return out
}
