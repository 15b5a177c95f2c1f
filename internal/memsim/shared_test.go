package memsim

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/stats"
)

// sharedPages are the NVRAM pages the shared-page tests write: both ends of
// a shared-bit word and of the first directory chunk, and pages of the
// second chunk. A write may run from one of them into the next when the two
// are adjacent.
var sharedPages = []uint64{0, 1, 2, 63, 64, 127, 128, 260}

// modelPage is the flat model of one page, and which of its blocks were ever
// written: a block that never was must not be materialised.
type modelPage struct {
	data    [PageBytes]byte
	written [pageBlocks]bool
}

// pageModel is the flat model of one Memory's or one image's NVRAM over
// sharedPages; every other page reads as zeros and is never written.
type pageModel []modelPage

func newPageModel() pageModel { return make(pageModel, len(sharedPages)) }

func (p pageModel) clone() pageModel { return append(pageModel(nil), p...) }

// write copies data into the model from byte off of sharedPages[k] on,
// into the next page when it runs past this one's end.
func (p pageModel) write(k, off int, data []byte) {
	for len(data) > 0 {
		n := copy(p[k].data[off:], data)
		for b := off >> blockShift; b <= (off+n-1)>>blockShift; b++ {
			p[k].written[b] = true
		}
		data, k, off = data[n:], k+1, 0
	}
}

// modelIndex returns n's index in sharedPages, or -1.
func modelIndex(n uint64) int {
	for k, s := range sharedPages {
		if s == n {
			return k
		}
	}
	return -1
}

// pageData flattens a page table into its bytes.
func pageData(p *page) [PageBytes]byte {
	var d [PageBytes]byte
	for k, b := range p {
		if b != nil {
			copy(d[k<<blockShift:], b[:])
		}
	}
	return d
}

// checkBlocks fails unless page n's table p holds blocks only where the
// model's page was written.
func checkBlocks(t *testing.T, what string, n uint64, p *page, model pageModel) {
	t.Helper()
	k := modelIndex(n)
	if k < 0 {
		t.Fatalf("%s: page %d materialised, it was never written", what, n)
	}
	for b, blk := range p {
		if blk != nil && !model[k].written[b] {
			t.Fatalf("%s: page %d holds block %d, which was never written", what, n, b)
		}
	}
}

// checkMemory compares mem's NVRAM with its model, read through Peek, and
// fails if mem holds a page or block that was never written.
func checkMemory(t *testing.T, what string, mem *Memory, model pageModel) {
	t.Helper()
	var got [PageBytes]byte
	for k, n := range sharedPages {
		mem.Peek(mem.cfg.NVRAMBase+PAddr(n<<PageShift), got[:])
		if got != model[k].data {
			t.Fatalf("%s: NVRAM page %d differs from its flat model", what, n)
		}
	}
	mem.nvram.eachPage(func(n uint64, p *page) { checkBlocks(t, what, n, p, model) })
}

// checkImage compares img with its model, and fails if it holds a page or
// block that was never written.
func checkImage(t *testing.T, what string, img Image, model pageModel) {
	t.Helper()
	for k, n := range sharedPages {
		var got [PageBytes]byte
		for _, p := range img.pages {
			if p.n == n {
				got = pageData(p.p)
			}
		}
		if got != model[k].data {
			t.Fatalf("%s: page %d differs from its flat model", what, n)
		}
	}
	for _, p := range img.pages {
		checkBlocks(t, what, p.n, p.p, model)
	}
}

// Randomised differential test of copy-on-write NVRAM blocks against flat
// models: a seeded mix of writes to any live Memory — WriteBytes spans and
// Poke spans, many ending just past a block boundary, and Poke spans that
// run into the next page — NVRAMImage of any Memory, some turned into flat
// bytes and back through ImageFromBytes, and NewFromImage of any earlier
// image, images of restored Memories included. Most writes are short, so
// most pages stay partly written. After every step every Memory and every
// image taken so far is compared with its own flat model, and holds no block
// that was never written. An image never changes, and no write through one
// Memory shows in another.
func TestSharedPagesMatchesScanModel(t *testing.T) {
	cfg := sparseTestConfig()
	for seed := uint64(1); seed <= 3; seed++ {
		rng := engine.NewRNG(seed)
		mems, memModels := []*Memory{New(cfg, &stats.Stats{})}, []pageModel{newPageModel()}
		var imgs []Image
		var imgModels []pageModel
		for step := 0; step < 300; step++ {
			switch op := rng.Intn(100); {
			case op < 70:
				i, k := rng.Intn(len(mems)), rng.Intn(len(sharedPages))
				off := rng.Intn(PageBytes)
				if rng.Intn(2) == 0 { // end just past a block boundary
					off = max(0, (1+rng.Intn(pageBlocks))<<blockShift-1-rng.Intn(LineBytes))
				}
				room := PageBytes - off
				if k+1 < len(sharedPages) && sharedPages[k+1] == sharedPages[k]+1 {
					room += PageBytes
				}
				n := 1 + rng.Intn(min(room, 2*blockBytes))
				if rng.Intn(8) == 0 {
					n = 1 + rng.Intn(room)
				}
				data := make([]byte, n)
				for j := range data {
					data[j] = byte(rng.Intn(256))
				}
				pa := cfg.NVRAMBase + PAddr(sharedPages[k]<<PageShift+uint64(off))
				if rng.Intn(2) == 0 {
					data = data[:min(n, LineBytes-int(pa&(LineBytes-1)))]
					mems[i].WriteBytes(pa, data, 0, stats.CatData)
				} else {
					mems[i].Poke(pa, data)
				}
				memModels[i].write(k, off, data)
			case op < 85:
				i := rng.Intn(len(mems))
				img := mems[i].NVRAMImage()
				if rng.Intn(3) == 0 {
					img = ImageFromBytes(img.Bytes())
					for _, p := range img.pages {
						for b, blk := range p.p {
							if blk != nil && *blk == zeroBlock {
								t.Fatalf("seed %d step %d: ImageFromBytes kept all-zero block %d of page %d", seed, step, b, p.n)
							}
						}
					}
				}
				imgs = append(imgs, img)
				imgModels = append(imgModels, memModels[i].clone())
			default:
				if len(imgs) == 0 {
					continue
				}
				i := rng.Intn(len(imgs))
				mem, err := NewFromImage(cfg, &stats.Stats{}, imgs[i])
				if err != nil {
					t.Fatal(err)
				}
				mems, memModels = append(mems, mem), append(memModels, imgModels[i].clone())
			}
			for i := range mems {
				checkMemory(t, fmt.Sprintf("seed %d step %d: memory %d", seed, step, i), mems[i], memModels[i])
			}
			for i := range imgs {
				checkImage(t, fmt.Sprintf("seed %d step %d: image %d", seed, step, i), imgs[i], imgModels[i])
			}
		}
	}

	// A page whose only non-zero block is block k: ImageFromBytes keeps that
	// block alone, the Memory booted from it reads the page back, and its
	// write to another block of the page copies the table, allocates that
	// one block and leaves the image as it was.
	t.Run("single block", func(t *testing.T) {
		for k := range pageBlocks {
			flat := make([]byte, cfg.NVRAMBytes)
			n := uint64(5)
			flat[n<<PageShift+uint64(k)<<blockShift+uint64(k)] = byte(1 + k)
			img := ImageFromBytes(flat)
			if len(img.pages) != 1 || img.pages[0].n != n {
				t.Fatalf("block %d: ImageFromBytes kept %d pages, want page %d alone", k, len(img.pages), n)
			}
			for b, blk := range img.pages[0].p {
				if (blk != nil) != (b == k) {
					t.Fatalf("block %d: the image's page holds block %d: %v", k, b, blk != nil)
				}
			}
			mem, err := NewFromImage(cfg, &stats.Stats{}, img)
			if err != nil {
				t.Fatal(err)
			}
			other := (k + 1) % pageBlocks
			pa := cfg.NVRAMBase + PAddr(n<<PageShift+uint64(other)<<blockShift)
			write := func() {
				mem.nvram.shareAll()
				mem.WriteLine(pa, line(0xcd), 0, stats.CatData)
			}
			if got := testing.AllocsPerRun(1, write); got != 2 {
				t.Errorf("block %d: a write to block %d of a shared page allocated %.0f times, want 2 (the table and the block)", k, other, got)
			}
			if !bytes.Equal(img.Bytes(), flat) {
				t.Fatalf("block %d: a write to the booted memory reached the image", k)
			}
			want := bytes.Clone(flat)
			copy(want[pa-cfg.NVRAMBase:], line(0xcd))
			if !bytes.Equal(mem.NVRAMImage().Bytes(), want) {
				t.Fatalf("block %d: the booted memory differs from its flat model", k)
			}
		}
	})

	// Two Memories booted from one image on two goroutines write every page
	// the image holds: each takes its own copies (under -race, a write to a
	// table or block still shared is a data race), and the image stays as it
	// was.
	t.Run("race", func(t *testing.T) {
		mem, model := New(cfg, &stats.Stats{}), newPageModel()
		for k, n := range sharedPages {
			for i := range model[k].data {
				model[k].data[i] = byte(k + i)
			}
			for b := range model[k].written {
				model[k].written[b] = true
			}
			mem.Poke(cfg.NVRAMBase+PAddr(n<<PageShift), model[k].data[:])
		}
		img := mem.NVRAMImage()
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				booted, err := NewFromImage(cfg, &stats.Stats{}, img)
				if err != nil {
					t.Error(err)
					return
				}
				want := model.clone()
				for k, n := range sharedPages {
					for off := g * LineBytes; off < PageBytes; off += 2 * LineBytes {
						booted.WriteLine(cfg.NVRAMBase+PAddr(n<<PageShift+uint64(off)), line(byte(0xa0+g)), 0, stats.CatData)
						want.write(k, off, line(byte(0xa0+g)))
					}
				}
				var got [PageBytes]byte
				for k, n := range sharedPages {
					booted.Peek(cfg.NVRAMBase+PAddr(n<<PageShift), got[:])
					if got != want[k].data {
						t.Errorf("goroutine %d: NVRAM page %d differs from its flat model", g, n)
					}
				}
			}(g)
		}
		wg.Wait()
		checkImage(t, "the image both booted from", img, model)
		checkMemory(t, "the memory the image was taken from", mem, model)
	})
}
