package memsim

import (
	"bytes"
	"fmt"

	"repro/internal/stats"
)

// Image is the durable NVRAM contents a power failure leaves behind, kept as
// sparsely as the Memory keeps them: the NVRAM capacity it was taken from
// and the table of each materialised page, in ascending page order. A page
// it leaves out reads as zeros, and so does a block a table leaves out.
//
// An Image is immutable. It holds the page tables themselves, not copies:
// they and their blocks are shared copy-on-write with the Memory the image
// was taken from and with every Memory booted from it, and each of those
// copies a shared table on its first write to the page, and a shared block
// on its first write to the block. No write through any Memory is ever
// visible in the image or in another Memory, so the crashed Memory may
// still recover in place, and one image may be restored any number of
// times, from any goroutine. Taking an image and booting from one cost a
// pointer per page the run wrote; the copies are paid later, a table per
// page and a block per block that is written again.
type Image struct {
	capacity uint64      // NVRAM bytes
	pages    []imagePage // in ascending page order
}

type imagePage struct {
	n uint64 // page number within NVRAM
	p *page  // never written again
}

// NVRAMImage returns the durable NVRAM contents: every page something was
// written to, found by walking the chunk directory. The page tables are
// handed out, not copied, and marked shared, so m's next write to each page
// copies its table first.
func (m *Memory) NVRAMImage() Image {
	n := 0
	m.nvram.eachPage(func(uint64, *page) { n++ })
	img := Image{capacity: m.cfg.NVRAMBytes, pages: make([]imagePage, 0, n)}
	m.nvram.eachPage(func(n uint64, p *page) {
		img.pages = append(img.pages, imagePage{n: n, p: p})
	})
	m.nvram.shareAll()
	return img
}

// NewFromImage is like New but installs img as the initial NVRAM contents —
// this is how a post-crash machine boots from a previous machine's durable
// state. The image's page tables are installed shared, not copied: the new
// Memory copies a table on its first write to the page, and img is left as
// it was, to be restored again. The image must come from a Memory with
// cfg.NVRAMBytes of NVRAM; a mismatched image (from a machine with a
// different memory Config) is rejected with a descriptive error rather than
// corrupting the address space.
func NewFromImage(cfg Config, st *stats.Stats, img Image) (*Memory, error) {
	if img.capacity != cfg.NVRAMBytes {
		return nil, fmt.Errorf("memsim: NVRAM image is %d bytes but Config.NVRAMBytes is %d; the image must come from a machine with the same memory capacities", img.capacity, cfg.NVRAMBytes)
	}
	m := New(cfg, st)
	for _, p := range img.pages {
		m.nvram.share(p.n, p.p)
	}
	return m, nil
}

// Pages returns the number of pages the image holds.
func (img Image) Pages() int { return len(img.pages) }

// Bytes returns the image as a flat copy of the whole NVRAM range, zeros
// where the image holds no block.
func (img Image) Bytes() []byte {
	b := make([]byte, img.capacity)
	for _, p := range img.pages {
		for k, blk := range p.p {
			if blk != nil {
				copy(b[p.n<<PageShift+uint64(k)<<blockShift:], blk[:])
			}
		}
	}
	return b
}

// ImageFromBytes is the image of an NVRAM range whose contents are b (its
// length is the capacity), copied one block at a time. An all-zero block is
// left out, and so is a page of them, so it costs the image, and a Memory
// booted from it, nothing.
func ImageFromBytes(b []byte) Image {
	img := Image{capacity: uint64(len(b))}
	for off := 0; off < len(b); off += PageBytes {
		var p *page
		for k := 0; k < pageBlocks && off+k<<blockShift < len(b); k++ {
			src := b[off+k<<blockShift : min(off+(k+1)<<blockShift, len(b))]
			if bytes.Equal(src, zeroBlock[:len(src)]) {
				continue
			}
			if p == nil {
				p = new(page)
				img.pages = append(img.pages, imagePage{n: uint64(off >> PageShift), p: p})
			}
			p[k] = new([blockBytes]byte)
			copy(p[k][:], src)
		}
	}
	return img
}
