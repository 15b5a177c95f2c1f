package memsim

import (
	"bytes"
	"fmt"

	"repro/internal/stats"
)

// Image is the durable NVRAM contents a power failure leaves behind, kept as
// sparsely as the Memory keeps them: the NVRAM capacity it was taken from
// and each materialised page, in ascending page order. A page it leaves out
// reads as zeros.
//
// An Image is immutable. It holds the pages themselves, not copies: they are
// shared copy-on-write with the Memory it was taken from and with every
// Memory booted from it, and each of those copies a shared page on its first
// write to it. No write through any Memory is ever visible in the image or in
// another Memory, so the crashed Memory may still recover in place, and one
// image may be restored any number of times, from any goroutine. Taking an
// image and booting from one cost a pointer per page the run wrote; the page
// copies are paid later, one per page that is written again.
type Image struct {
	capacity uint64      // NVRAM bytes
	pages    []imagePage // in ascending page order
}

type imagePage struct {
	n    uint64 // page number within NVRAM
	data *[PageBytes]byte
}

// NVRAMImage returns the durable NVRAM contents: every page something was
// written to, found by walking the chunk directory. The pages are handed out,
// not copied, and marked shared, so m's next write to each copies it first.
func (m *Memory) NVRAMImage() Image {
	n := 0
	m.nvram.eachPage(func(uint64, *[PageBytes]byte) { n++ })
	img := Image{capacity: m.cfg.NVRAMBytes, pages: make([]imagePage, 0, n)}
	m.nvram.eachPage(func(page uint64, pg *[PageBytes]byte) {
		img.pages = append(img.pages, imagePage{n: page, data: pg})
	})
	m.nvram.shareAll()
	return img
}

// NewFromImage is like New but installs img as the initial NVRAM contents —
// this is how a post-crash machine boots from a previous machine's durable
// state. The image's pages are installed shared, not copied: the new Memory
// copies a page on its first write to it, and img is left as it was, to be
// restored again. Wear counters start at zero. The image must come from a
// Memory with cfg.NVRAMBytes of NVRAM; a mismatched image (from a machine
// with a different memory Config) is rejected with a descriptive error
// rather than corrupting the address space.
func NewFromImage(cfg Config, st *stats.Stats, img Image) (*Memory, error) {
	if img.capacity != cfg.NVRAMBytes {
		return nil, fmt.Errorf("memsim: NVRAM image is %d bytes but Config.NVRAMBytes is %d; the image must come from a machine with the same memory capacities", img.capacity, cfg.NVRAMBytes)
	}
	m := New(cfg, st)
	for _, p := range img.pages {
		m.nvram.share(p.n, p.data)
	}
	return m, nil
}

// Pages returns the number of pages the image holds.
func (img Image) Pages() int { return len(img.pages) }

// Bytes returns the image as a flat copy of the whole NVRAM range, zeros
// where the image holds no page.
func (img Image) Bytes() []byte {
	b := make([]byte, img.capacity)
	for _, p := range img.pages {
		copy(b[p.n<<PageShift:], p.data[:])
	}
	return b
}

// ImageFromBytes is the image of an NVRAM range whose contents are b (its
// length is the capacity), copied one page at a time. An all-zero page is
// left out, so it costs the image, and a Memory booted from it, nothing.
func ImageFromBytes(b []byte) Image {
	img := Image{capacity: uint64(len(b))}
	for off := 0; off < len(b); off += PageBytes {
		pg := b[off:min(off+PageBytes, len(b))]
		if bytes.Equal(pg, zeroPage[:len(pg)]) {
			continue
		}
		data := new([PageBytes]byte)
		copy(data[:], pg)
		img.pages = append(img.pages, imagePage{n: uint64(off >> PageShift), data: data})
	}
	return img
}
