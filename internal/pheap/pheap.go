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
	r := h.region()
	return r.alloc(tx, size)
}

// Free returns a class-sized block to its free list. Page-granular blocks
// cannot be freed (arena semantics), matching the workloads' needs.
func (h *Heap) Free(tx Tx, va uint64, size int) {
	r := h.region()
	r.free(tx, va, size)
}

// region returns the heap's allocator state: the metadata page's bump
// pointer, limit and free lists, with fresh bump pages mapped on demand.
func (h *Heap) region() region {
	return region{
		bump: MetaVA(bumpOff), limit: MetaVA(limitOff), classes: MetaVA(classOff),
		mapPages:  h.EnsureMapped,
		exhausted: "pheap: persistent heap exhausted; raise NVRAMBytes/MaxHeapPages",
	}
}

// region is the allocator body Heap and Arena share: a bump pointer, a
// limit and one free-list head per size class at fixed virtual addresses,
// all updated inside the caller's transaction.
type region struct {
	bump, limit, classes uint64 // VAs of the bump pointer, the limit and the first free-list head
	// mapPages maps the heap pages a bump carves (nil: the region is
	// mapped up front).
	mapPages  func(tx Tx, firstVPN, lastVPN int)
	exhausted string // the panic message when a bump passes the limit
}

func (r *region) alloc(tx Tx, size int) uint64 {
	if size <= 0 {
		panic("pheap: Alloc of non-positive size")
	}
	ci := classFor(size)
	if ci < 0 {
		// Page-granular allocation for big blocks.
		pages := (size + memsim.PageBytes - 1) / memsim.PageBytes
		return r.carve(tx, uint64(pages)*memsim.PageBytes)
	}
	headVA := r.classes + uint64(ci*8)
	if head := tx.Load64(headVA); head != 0 {
		next := tx.Load64(head)
		tx.Store64(headVA, next)
		return head
	}
	return r.carve(tx, uint64(classes[ci]))
}

// carve takes size bytes from the bump region: a class size (a power of
// two ≤ 2048) never straddles a page boundary, so objects stay within pages
// of their class run, and whole pages start on a page boundary.
func (r *region) carve(tx Tx, size uint64) uint64 {
	b := tx.Load64(r.bump)
	if rem := b % memsim.PageBytes; rem != 0 && rem+size > memsim.PageBytes {
		b += memsim.PageBytes - rem
	}
	if b+size > tx.Load64(r.limit) {
		panic(r.exhausted)
	}
	if r.mapPages != nil {
		r.mapPages(tx, vm.VPNOf(b), vm.VPNOf(b+size-1))
	}
	tx.Store64(r.bump, b+size)
	return b
}

func (r *region) free(tx Tx, va uint64, size int) {
	ci := classFor(size)
	if ci < 0 {
		panic("pheap: Free of a page-granular block")
	}
	headVA := r.classes + uint64(ci*8)
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
