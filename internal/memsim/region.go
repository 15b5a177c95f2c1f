package memsim

import "fmt"

// Byte images materialise on touch: a region is a directory of chunks, a
// chunk holds chunkPages page pointers and wear counters, and a page's 4 KiB
// exist only once something was written to it. Building a Memory therefore
// costs a directory of one pointer per MiB of capacity, and everything that
// walks a region (NVRAMImage, ResetWear, WornPages) walks what was
// touched.
//
// NVRAM pages are shared copy-on-write between a Memory, the images taken of
// it and every Memory booted from one of them: a shared page is read-only to
// all of them, and the first write through a Memory gives that Memory its
// own copy.
const (
	chunkShift = 8
	chunkPages = 1 << chunkShift // 1 MiB of address space per directory slot
)

// zeroPage is what a never-written page reads as. It is shared by every
// Memory in the process, so it is only ever copied out of: readable hands it
// out, owned and own never do.
var zeroPage [PageBytes]byte

type chunk struct {
	// pages[i] is nil until the page's first write.
	pages [chunkPages]*[PageBytes]byte
	// shared has bit i set while pages[i] may also be held by an Image: the
	// page must be copied before this Memory writes it.
	shared [chunkPages / 64]uint64
	// wear[i] counts durable line writes to the page — the media-endurance
	// profile software wear-leveling consumes (NVRAM only).
	wear [chunkPages]uint64
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

// chunkOf returns the chunk holding the region's page-th page, or nil if
// nothing in it was touched yet.
func (r *region) chunkOf(page uint64) *chunk {
	return r.dir[page>>chunkShift]
}

// touchChunk is chunkOf that materialises the chunk.
func (r *region) touchChunk(page uint64) *chunk {
	slot := &r.dir[page>>chunkShift]
	if *slot == nil {
		*slot = new(chunk)
	}
	return *slot
}

// eachPage calls fn with the number and contents of every materialised page,
// in ascending page order.
func (r *region) eachPage(fn func(page uint64, pg *[PageBytes]byte)) {
	for ci, c := range r.dir {
		if c == nil {
			continue
		}
		for i, pg := range c.pages[:] {
			if pg != nil {
				fn(uint64(ci)<<chunkShift|uint64(i), pg)
			}
		}
	}
}

// share installs pg as the region's page-th page, marked shared.
func (r *region) share(page uint64, pg *[PageBytes]byte) {
	c, i := r.touchChunk(page), page&(chunkPages-1)
	c.pages[i] = pg
	c.shared[i/64] |= 1 << (i % 64)
}

// shareAll marks every materialised page shared.
func (r *region) shareAll() {
	for _, c := range r.dir {
		if c == nil {
			continue
		}
		for i, pg := range c.pages[:] {
			if pg != nil {
				c.shared[i/64] |= 1 << (i % 64)
			}
		}
	}
}

// locate returns the region holding [pa, pa+n) and the span's offset in it.
// It panics unless the span lies wholly inside DRAM or NVRAM: nothing behind
// it bounds an access any more, and an access past capacity must never
// quietly read the zero page.
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

// readable returns the page holding offset off for reading: a never-written
// page is the shared zeroPage.
func (r *region) readable(off uint64) *[PageBytes]byte {
	page := off >> PageShift
	if c := r.chunkOf(page); c != nil && c.pages[page&(chunkPages-1)] != nil {
		return c.pages[page&(chunkPages-1)]
	}
	return &zeroPage
}

// owned is readable for a store: the page holding offset off if this Memory
// may write it in place, nil if it must own it first (a page never written,
// or one shared with an image). It inlines, so a store to a page the Memory
// owns pays one bit test more than a load.
func (r *region) owned(off uint64) *[PageBytes]byte {
	page := off >> PageShift
	c, i := r.dir[page>>chunkShift], page&(chunkPages-1)
	if c == nil || c.shared[i/64]&(1<<(i%64)) != 0 {
		return nil
	}
	return c.pages[i]
}

// own gives the page holding offset off a buffer of this Memory's own and
// returns it: zeros for a page never written, a copy of a shared one.
func (r *region) own(off uint64) *[PageBytes]byte {
	page := off >> PageShift
	c, i := r.touchChunk(page), page&(chunkPages-1)
	pg := new([PageBytes]byte)
	if c.pages[i] != nil {
		*pg = *c.pages[i]
	}
	c.pages[i] = pg
	c.shared[i/64] &^= 1 << (i % 64)
	return pg
}

// wearOf returns the wear counter of the NVRAM page containing pa (which
// must be NVRAM), materialising its chunk.
func (m *Memory) wearOf(pa PAddr) *uint64 {
	page := uint64(pa-m.cfg.NVRAMBase) >> PageShift
	return &m.nvram.touchChunk(page).wear[page&(chunkPages-1)]
}
