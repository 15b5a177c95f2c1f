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
// second chunk.
var sharedPages = []uint64{0, 1, 2, 63, 64, 255, 256, 260}

// pageModel is the flat model of one Memory's or one image's NVRAM over
// sharedPages; every other page reads as zeros and is never written.
type pageModel [][PageBytes]byte

func newPageModel() pageModel { return make(pageModel, len(sharedPages)) }

func (p pageModel) clone() pageModel { return append(pageModel(nil), p...) }

// imagePageOf returns the image's copy of page n, nil if it holds none.
func imagePageOf(img Image, n uint64) *[PageBytes]byte {
	for _, p := range img.pages {
		if p.n == n {
			return p.data
		}
	}
	return nil
}

// checkMemory compares mem's NVRAM with its model, and fails if mem holds a
// page outside sharedPages.
func checkMemory(t *testing.T, what string, mem *Memory, model pageModel) {
	t.Helper()
	for k, n := range sharedPages {
		if !bytes.Equal(mem.nvram.readable(n << PageShift)[:], model[k][:]) {
			t.Fatalf("%s: NVRAM page %d differs from its flat model", what, n)
		}
	}
	pages := 0
	mem.nvram.eachPage(func(uint64, *[PageBytes]byte) { pages++ })
	if pages > len(sharedPages) {
		t.Fatalf("%s: %d NVRAM pages materialised, only %d were written", what, pages, len(sharedPages))
	}
}

// checkImage compares img with its model, and fails if it holds a page
// outside sharedPages.
func checkImage(t *testing.T, what string, img Image, model pageModel) {
	t.Helper()
	for k, n := range sharedPages {
		got := &zeroPage
		if pg := imagePageOf(img, n); pg != nil {
			got = pg
		}
		if *got != model[k] {
			t.Fatalf("%s: page %d differs from its flat model", what, n)
		}
	}
	if len(img.pages) > len(sharedPages) {
		t.Fatalf("%s: holds %d pages, only %d were written", what, len(img.pages), len(sharedPages))
	}
}

// Randomised differential test of copy-on-write NVRAM pages against flat
// models: a seeded mix of writes to any live Memory, NVRAMImage of any
// Memory, and NewFromImage of any earlier image — images of restored
// Memories included — and after every step every Memory and every image
// taken so far is compared with its own flat model. An image never changes,
// and no write through one Memory shows in another.
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
				data := make([]byte, 1+rng.Intn(PageBytes-off))
				for j := range data {
					data[j] = byte(rng.Intn(256))
				}
				pa := cfg.NVRAMBase + PAddr(sharedPages[k]<<PageShift+uint64(off))
				if len(data) <= LineBytes-int(pa&(LineBytes-1)) && rng.Intn(2) == 0 {
					mems[i].WriteBytes(pa, data, 0, stats.CatData)
				} else {
					mems[i].Poke(pa, data)
				}
				copy(memModels[i][k][off:], data)
			case op < 85:
				i := rng.Intn(len(mems))
				imgs = append(imgs, mems[i].NVRAMImage())
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

	// Two Memories booted from one image on two goroutines write every page
	// the image holds: each takes its own copies (under -race, a write to a
	// page still shared is a data race), and the image stays as it was.
	t.Run("race", func(t *testing.T) {
		mem, model := New(cfg, &stats.Stats{}), newPageModel()
		for k, n := range sharedPages {
			for i := range model[k] {
				model[k][i] = byte(k + i)
			}
			mem.Poke(cfg.NVRAMBase+PAddr(n<<PageShift), model[k][:])
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
						copy(want[k][off:off+LineBytes], line(byte(0xa0+g)))
					}
				}
				for k, n := range sharedPages {
					if !bytes.Equal(booted.nvram.readable(n << PageShift)[:], want[k][:]) {
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
