package memsim

import "fmt"

// Byte images materialise on touch, a block at a time: a region is a
// directory of chunks, a chunk holds chunkPages page pointers and their
// shared marks, a page is a table of pageBlocks block pointers, and a block's
// blockBytes exist only once something was written to it. Building a Memory
// therefore costs a directory of one pointer per 512 KiB of capacity, a
// page that was written to costs its table and the blocks written, and
// everything that walks a region (NVRAMImage) walks what was touched. Pages
// stay the unit of addresses; the block is the unit of allocation and of
// copy-on-write sharing.
//
// A block is 512 bytes, so a page's table is 8 pointers: one 64-byte host
// cache line, which every line access loads between the chunk and the
// block. 256-byte blocks allocated 2.2 KB less per crash-sweep trap point
// (crashsweep.BenchmarkTrapPoint's B/point), but their 16-pointer tables made
// a random line access about 30% slower than 512-byte blocks do.
//
// NVRAM is shared copy-on-write between a Memory, the images taken of it and
// every Memory booted from one of them, at two levels. An image holds the
// Memory's page tables themselves: a table an image holds is read-only to
// every Memory that holds it, and the first write through one of them gives
// that Memory a copy of the table — its block pointers, each block then
// marked shared. A shared block is read-only too, and the first write to it
// gives the table a copy of its own. The shared marks are the Memory's own,
// in its chunks, so a table holds nothing but block pointers.
const (
	chunkShift = 7
	chunkPages = 1 << chunkShift // 512 KiB of address space per directory slot

	blockShift = 9
	blockBytes = 1 << blockShift // the unit of allocation and sharing
	pageBlocks = PageBytes / blockBytes
)

// zeroBlock is what a never-written block reads as. It is shared by every
// Memory in the process, so it is only ever copied out of: readable hands it
// out, owned and own never do.
var zeroBlock [blockBytes]byte

// page is one materialised page's block table: page[k] is nil until the
// page's k-th block is first written.
type page [pageBlocks]*[blockBytes]byte

// tableShared is the bit of a chunk's shared word that marks the page's
// table itself shared; bit k < pageBlocks marks its k-th block shared.
const tableShared = 1 << pageBlocks

type chunk struct {
	// pages[i] is nil until the page's first write.
	pages [chunkPages]*page
	// shared[i] has tableShared set while pages[i] may also be held by an
	// Image, and bit k while block k may also be held by another table: the
	// table, or the block, must be copied before this Memory writes it.
	shared [chunkPages]uint16
}

// region is one contiguous physical range, DRAM or NVRAM.
type region struct {
	base PAddr
	size uint64
	// dir[i] covers pages [i<<chunkShift, (i+1)<<chunkShift).
	dir []*chunk
}

func newRegion(base PAddr, size uint64) region {
	pages := (size + PageBytes - 1) / PageBytes
	return region{base: base, size: size, dir: make([]*chunk, (pages+chunkPages-1)/chunkPages)}
}

// chunkOf returns the chunk holding the region's n-th page, or nil if
// nothing in it was touched yet.
func (r *region) chunkOf(n uint64) *chunk {
	return r.dir[n>>chunkShift]
}

// touchChunk is chunkOf that materialises the chunk.
func (r *region) touchChunk(n uint64) *chunk {
	slot := &r.dir[n>>chunkShift]
	if *slot == nil {
		*slot = new(chunk)
	}
	return *slot
}

// pageAt returns the table of the page holding offset off, or nil if
// nothing was ever written to it.
func (r *region) pageAt(off uint64) *page {
	n := off >> PageShift
	if c := r.chunkOf(n); c != nil {
		return c.pages[n&(chunkPages-1)]
	}
	return nil
}

// eachPage calls fn with the number and table of every materialised page,
// in ascending page order.
func (r *region) eachPage(fn func(n uint64, p *page)) {
	for ci, c := range r.dir {
		if c == nil {
			continue
		}
		for i, p := range c.pages[:] {
			if p != nil {
				fn(uint64(ci)<<chunkShift|uint64(i), p)
			}
		}
	}
}

// share installs p as the region's n-th page table, marked shared.
func (r *region) share(n uint64, p *page) {
	c, i := r.touchChunk(n), n&(chunkPages-1)
	c.pages[i] = p
	c.shared[i] = tableShared
}

// shareAll marks every materialised page table shared.
func (r *region) shareAll() {
	for _, c := range r.dir {
		if c == nil {
			continue
		}
		for i, p := range c.pages[:] {
			if p != nil {
				c.shared[i] |= tableShared
			}
		}
	}
}

// locate returns the region holding [pa, pa+n) and the span's offset in it.
// It panics unless the span lies wholly inside DRAM or NVRAM: nothing behind
// it bounds an access any more, and an access past capacity must never
// quietly read the zero block.
func (m *Memory) locate(pa PAddr, n int) (*region, uint64) {
	r := &m.dram
	if pa >= m.cfg.NVRAMBase {
		r = &m.nvram
	}
	off := uint64(pa - r.base)
	if off > r.size || uint64(n) > r.size-off {
		panic(fmt.Sprintf("memsim: address %#x+%d outside DRAM and NVRAM", pa, n))
	}
	return r, off
}

// readable returns the block holding offset off for reading: a
// never-written block is the shared zeroBlock.
func (r *region) readable(off uint64) *[blockBytes]byte {
	if p := r.pageAt(off); p != nil {
		if b := p[off>>blockShift&(pageBlocks-1)]; b != nil {
			return b
		}
	}
	return &zeroBlock
}

// owned is readable for a store: the block holding offset off if this
// Memory may write it in place, nil if it must own it first (a block never
// written, or one shared with an image, or whose page table is).
func (r *region) owned(off uint64) *[blockBytes]byte {
	n := off >> PageShift
	c, i := r.dir[n>>chunkShift], n&(chunkPages-1)
	k := off >> blockShift & (pageBlocks - 1)
	if c == nil || c.shared[i]&(tableShared|1<<k) != 0 {
		return nil
	}
	if p := c.pages[i]; p != nil {
		return p[k]
	}
	return nil
}

// own gives the block holding offset off a buffer of this Memory's own and
// returns it: zeros for a block never written, a copy of a shared one. A
// page table an image holds is copied first, each of its blocks then
// shared.
func (r *region) own(off uint64) *[blockBytes]byte {
	n := off >> PageShift
	c, i := r.touchChunk(n), n&(chunkPages-1)
	p := c.pages[i]
	switch {
	case p == nil:
		p = new(page)
		c.pages[i] = p
	case c.shared[i]&tableShared != 0:
		cp := *p
		p = &cp
		c.pages[i] = p
		c.shared[i] = 0
		for k, b := range p {
			if b != nil {
				c.shared[i] |= 1 << k
			}
		}
	}
	k := off >> blockShift & (pageBlocks - 1)
	b := new([blockBytes]byte)
	if old := p[k]; old != nil {
		*b = *old
	}
	p[k] = b
	c.shared[i] &^= 1 << k
	return b
}
