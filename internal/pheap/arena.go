package pheap

import (
	"fmt"

	"repro/internal/memsim"
)

// Allocator is the slice of the heap API persistent data structures build
// on. It is implemented by *Heap (the machine-global allocator) and *Arena
// (a per-core shard of it). Structures written against Allocator work
// unchanged in both the serial single-heap world and the machine's
// concurrent goroutine-per-core mode.
type Allocator interface {
	Alloc(tx Tx, size int) uint64
	Free(tx Tx, va uint64, size int)
}

var (
	_ Allocator = (*Heap)(nil)
	_ Allocator = (*Arena)(nil)
)

// Arena metadata layout within the arena's own metadata page (virtual
// addresses relative to the page base). Bump pointer and limit share the
// first cache line; the free-list heads live in the second line. Keeping
// every arena's metadata in its own page means concurrent cores never issue
// transactional stores to a shared line — which matters under SSP, where
// two open transactions flipping the same sub-page unit would break the
// atomic-update protocol (isolation is the application's job, §3.1).
const (
	arenaBumpOff  = 0
	arenaLimitOff = 8
	arenaClassOff = 64
)

// Arena is a per-core allocation shard: a disjoint, pre-mapped slice of the
// persistent heap with its own bump pointer and free lists. Like the global
// heap, all metadata lives in NVRAM and is updated inside the enclosing
// transaction, so arenas recover for free. An arena must only be used by
// one core at a time (the machine's one-goroutine-per-Core contract).
type Arena struct {
	h    *Heap
	meta uint64 // VA of the arena's metadata page
	r    region
}

// NewArena carves a new arena of the given data capacity (in pages) out of
// the global heap, inside tx's open transaction. The arena's pages are
// mapped up front, so arena allocations never touch the shared page-mapping
// path. Call during single-goroutine setup, before Machine.Run.
func (h *Heap) NewArena(tx Tx, pages int) *Arena {
	if pages <= 0 {
		panic("pheap: NewArena of non-positive page count")
	}
	r := h.region()
	meta := r.carve(tx, memsim.PageBytes)
	base := r.carve(tx, uint64(pages)*memsim.PageBytes)
	tx.Store64(meta+arenaBumpOff, base)
	tx.Store64(meta+arenaLimitOff, base+uint64(pages)*memsim.PageBytes)
	for i := range classes {
		tx.Store64(meta+arenaClassOff+uint64(i*8), 0)
	}
	return OpenArena(h, meta)
}

// OpenArena reattaches an arena from its metadata page address (after a
// Restore).
func OpenArena(h *Heap, meta uint64) *Arena {
	return &Arena{h: h, meta: meta, r: region{
		bump: meta + arenaBumpOff, limit: meta + arenaLimitOff, classes: meta + arenaClassOff,
		exhausted: fmt.Sprintf("pheap: arena %#x exhausted; size arenas for the workload", meta),
	}}
}

// Meta returns the arena's metadata page address; store it in a root slot
// to reopen the arena after a crash.
func (a *Arena) Meta() uint64 { return a.meta }

// Alloc returns the VA of a new block of at least size bytes from the
// arena, carving it from the arena's free lists or bump region. It must run
// inside a transaction on the owning core.
func (a *Arena) Alloc(tx Tx, size int) uint64 { return a.r.alloc(tx, size) }

// Free returns a class-sized block to the arena's free list. The block must
// have been allocated from this arena (cross-arena frees would let two
// cores' transactions meet on one free-list line).
func (a *Arena) Free(tx Tx, va uint64, size int) { a.r.free(tx, va, size) }

// Remaining returns the unallocated bump-region bytes (sizing/debug aid).
func (a *Arena) Remaining(tx Tx) uint64 {
	return tx.Load64(a.r.limit) - tx.Load64(a.r.bump)
}
