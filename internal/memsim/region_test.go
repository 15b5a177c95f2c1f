package memsim

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/stats"
)

// flatModel is the reference the materialise-on-touch backing is compared
// against: DRAM and NVRAM as two flat byte slices, with the power state and
// the write trap.
type flatModel struct {
	cfg   Config
	dram  []byte
	nvram []byte
	off   bool
	trap  int64
}

func newFlatModel(cfg Config) *flatModel {
	return &flatModel{cfg: cfg, dram: make([]byte, cfg.DRAMBytes), nvram: make([]byte, cfg.NVRAMBytes), trap: -1}
}

func (f *flatModel) span(pa PAddr, n int) []byte {
	if pa >= f.cfg.NVRAMBase {
		o := pa - f.cfg.NVRAMBase
		return f.nvram[o : o+PAddr(n)]
	}
	return f.dram[pa : pa+PAddr(n)]
}

// powerOff cuts the power, which disarms the trap; with the power already
// off it does nothing.
func (f *flatModel) powerOff() {
	if !f.off {
		f.off, f.trap = true, -1
	}
}

// write is WriteBytes: an NVRAM write counts against the trap and is lost
// with the power off; a DRAM write always lands.
func (f *flatModel) write(pa PAddr, data []byte) {
	if pa >= f.cfg.NVRAMBase {
		if f.trap == 0 {
			f.powerOff()
		} else if f.trap > 0 {
			f.trap--
		}
		if f.off {
			return
		}
	}
	copy(f.span(pa, len(data)), data)
}

// sparseTestConfig has an NVRAM that ends inside a directory chunk and a
// DRAM smaller than one.
func sparseTestConfig() Config {
	cfg := DefaultConfig()
	cfg.DRAMBytes = 64 << 10
	cfg.NVRAMBytes = 1<<20 + 5*PageBytes
	return cfg
}

// Randomised differential test of the byte images against the flat model:
// timed and untimed writes and reads, spans that straddle pages, writes of
// all-zero data (which must materialise nothing wrong and read back as
// zeros), an armed write trap, PowerOff/PowerOn, and a reboot through
// NVRAMImage + NewFromImage, half of them by way of the image's flat bytes
// (Image.Bytes + ImageFromBytes).
func TestSparseBackingMatchesFlatModel(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		cfg := sparseTestConfig()
		rng := engine.NewRNG(seed)
		mem, model := New(cfg, &stats.Stats{}), newFlatModel(cfg)
		dramPages, nvPages := int(cfg.DRAMBytes/PageBytes), int(cfg.NVRAMBytes/PageBytes)

		// addr picks a page — mostly from a few hot ones, so that pages are
		// overwritten and most of the range stays untouched — and returns the
		// address of a byte offset in it, plus the bytes left in the region.
		addr := func() (PAddr, int) {
			base, pages := PAddr(0), dramPages
			if rng.Intn(4) != 0 {
				base, pages = cfg.NVRAMBase, nvPages
			}
			page := rng.Intn(pages)
			switch rng.Intn(4) {
			case 0:
				page = rng.Intn(min(8, pages))
			case 1:
				page = pages - 1 - rng.Intn(min(8, pages))
			}
			off := page*PageBytes + rng.Intn(PageBytes)
			return base + PAddr(off), pages*PageBytes - off
		}
		payload := func(n int) []byte {
			b := make([]byte, n)
			if rng.Intn(4) != 0 { // one in four writes is all zeros
				for i := range b {
					b[i] = byte(rng.Intn(256))
				}
			}
			return b
		}
		compare := func(step int, what string, pa PAddr, got []byte) {
			t.Helper()
			if want := model.span(pa, len(got)); !bytes.Equal(got, want) {
				t.Fatalf("seed %d step %d: %s of %d bytes at %#x differs from the flat model", seed, step, what, len(got), pa)
			}
		}

		for step := 0; step < 6000; step++ {
			switch op := rng.Intn(100); {
			case op < 20:
				pa, _ := addr()
				data := payload(LineBytes)
				mem.WriteLine(pa, data, 0, stats.CatData)
				model.write(LineAddr(pa), data)
			case op < 35:
				pa, _ := addr()
				n := 1 + rng.Intn(LineBytes-int(pa&(LineBytes-1)))
				data := payload(n)
				mem.WriteBytes(pa, data, 0, stats.CatData)
				model.write(pa, data)
			case op < 50:
				pa, left := addr()
				data := payload(min(left, 1+rng.Intn(2*PageBytes)))
				mem.Poke(pa, data)
				copy(model.span(pa, len(data)), data)
			case op < 70:
				pa, _ := addr()
				buf := make([]byte, LineBytes)
				mem.ReadLine(pa, buf, 0)
				compare(step, "ReadLine", LineAddr(pa), buf)
			case op < 90:
				pa, left := addr()
				buf := make([]byte, min(left, 1+rng.Intn(3*PageBytes)))
				mem.Peek(pa, buf)
				compare(step, "Peek", pa, buf)
			case op < 93:
				n := int64(rng.Intn(12))
				mem.SetWriteTrap(n)
				model.trap = n
			case op < 95:
				mem.PowerOff()
				model.powerOff()
			case op < 97:
				mem.PowerOn()
				model.off = false
			default:
				img := mem.NVRAMImage()
				if !bytes.Equal(img.Bytes(), model.nvram) {
					t.Fatalf("seed %d step %d: NVRAMImage differs from the flat model", seed, step)
				}
				if rng.Intn(3) == 0 { // reboot: DRAM, power state and trap start over
					if rng.Intn(2) == 0 {
						img = ImageFromBytes(img.Bytes())
					}
					var err error
					if mem, err = NewFromImage(cfg, &stats.Stats{}, img); err != nil {
						t.Fatal(err)
					}
					clear(model.dram)
					model.off, model.trap = false, -1
				}
			}
			if mem.PoweredOff() != model.off {
				t.Fatalf("seed %d step %d: PoweredOff %v, model %v", seed, step, mem.PoweredOff(), model.off)
			}
		}
		whole := make([]byte, cfg.DRAMBytes)
		mem.Peek(0, whole)
		compare(-1, "final DRAM Peek", 0, whole)
		if !bytes.Equal(mem.NVRAMImage().Bytes(), model.nvram) {
			t.Fatalf("seed %d: final NVRAMImage differs from the flat model", seed)
		}
	}
	if zeroBlock != [blockBytes]byte{} {
		t.Fatal("the shared zero block was written to")
	}
}

// A flat page that is all zeros costs ImageFromBytes, and the Memory booted
// from its image, nothing; every other page comes back byte for byte.
func TestImageFromBytesSkipsZeroPages(t *testing.T) {
	cfg := sparseTestConfig()
	flat := make([]byte, cfg.NVRAMBytes)
	flat[3*PageBytes+17] = 1
	flat[len(flat)-1] = 2
	img := ImageFromBytes(flat)
	if len(img.pages) != 2 {
		t.Fatalf("ImageFromBytes kept %d pages of a range with 2 non-zero pages", len(img.pages))
	}
	mem, err := NewFromImage(cfg, &stats.Stats{}, img)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mem.NVRAMImage().Bytes(), flat) {
		t.Fatal("image did not survive NewFromImage")
	}
	pages := 0
	mem.nvram.eachPage(func(uint64, *page) { pages++ })
	if pages != 2 {
		t.Fatalf("NewFromImage materialised %d pages for an image with 2 non-zero pages", pages)
	}
}

// A Memory that writes one line in each of its NVRAM pages allocates at
// most 1 KiB per page (622 B measured), the memory's construction, its
// directory chunks and the timing rings of the banks it books included: a
// page costs its table and the block written, not its 4 KiB.
func TestSparseMemoryAllocatesPerWrittenBlock(t *testing.T) {
	const budget = 1 << 10
	cfg := sparseTestConfig()
	k := int(cfg.NVRAMBytes / PageBytes)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	mem := New(cfg, &stats.Stats{})
	for p := range k {
		pa := cfg.NVRAMBase + PAddr(p*PageBytes+p%LinesPerPage*LineBytes)
		mem.WriteLine(pa, line(byte(p)), 0, stats.CatData)
	}
	runtime.ReadMemStats(&ms)
	per := (ms.TotalAlloc - before) / uint64(k)
	t.Logf("%d B per page written", per)
	if per > budget {
		t.Errorf("writing one line in each of %d pages allocated %d B per page, budget %d", k, per, budget)
	}
	var got [LineBytes]byte
	for p := range k {
		mem.Peek(cfg.NVRAMBase+PAddr(p*PageBytes+p%LinesPerPage*LineBytes), got[:])
		if got != [LineBytes]byte(line(byte(p))) {
			t.Fatalf("page %d reads back %v", p, got[:4])
		}
	}
}

// One image restores twice to identical NVRAM, and no write through any of
// the three memories that share its pages shows up elsewhere: writes to the
// crashed memory and to the first restored one show up neither in the image
// nor in the second restore, also when the crashed memory writes again after
// the second restore took its pages.
func TestImageRestoresTwiceWithoutAliasing(t *testing.T) {
	cfg := sparseTestConfig()
	mem := New(cfg, &stats.Stats{})
	base := cfg.NVRAMBase
	for _, pa := range []PAddr{base, base + 3*PageBytes + 64, base + PAddr(cfg.NVRAMBytes) - LineBytes} {
		mem.WriteLine(pa, line(0x5a), 0, stats.CatData)
	}
	mem.PowerOff()
	img := mem.NVRAMImage()
	want := img.Bytes()

	first, err := NewFromImage(cfg, &stats.Stats{}, img)
	if err != nil {
		t.Fatal(err)
	}
	// The crashed memory recovers in place; both write a page the image
	// holds and one it does not.
	for _, m := range []*Memory{mem, first} {
		m.PowerOn()
		m.WriteLine(base, line(0xee), 0, stats.CatData)
		m.WriteLine(base+9*PageBytes, line(0xee), 0, stats.CatData)
	}
	if !bytes.Equal(img.Bytes(), want) {
		t.Fatal("a write to a memory reached the image it was taken from or booted from")
	}
	second, err := NewFromImage(cfg, &stats.Stats{}, img)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(second.NVRAMImage().Bytes(), want) {
		t.Fatal("the second restore of one image differs from the image")
	}
	if bytes.Equal(first.NVRAMImage().Bytes(), want) {
		t.Fatal("the first restore did not take its own writes")
	}
	// The crashed memory writes pages it already copied once and pages it
	// has not, after the second restore installed the image's pages.
	for _, pa := range []PAddr{base, base + 3*PageBytes, base + PAddr(cfg.NVRAMBytes) - LineBytes} {
		mem.WriteLine(pa, line(0x77), 0, stats.CatData)
	}
	if !bytes.Equal(img.Bytes(), want) {
		t.Fatal("a write to the crashed memory after a restore reached the image")
	}
	if !bytes.Equal(second.NVRAMImage().Bytes(), want) {
		t.Fatal("a write to the crashed memory after a restore reached the restored memory")
	}
}

// Every access outside DRAM and NVRAM panics — also one that starts inside
// and runs out, and also past the NVRAM end, where no slice bound stands
// behind the explicit check any more: it must never read the zero page.
func TestOutOfRangeAccessPanics(t *testing.T) {
	cfg := sparseTestConfig()
	mem := New(cfg, &stats.Stats{})
	dramEnd, nvEnd := PAddr(cfg.DRAMBytes), cfg.NVRAMBase+PAddr(cfg.NVRAMBytes)
	buf := make([]byte, 2*LineBytes)
	for _, tc := range []struct {
		name string
		pa   PAddr
	}{
		{"first byte past DRAM", dramEnd},
		{"hole between DRAM and NVRAM", cfg.NVRAMBase - PageBytes},
		{"first byte past NVRAM", nvEnd},
		{"far past NVRAM", nvEnd + 64<<20},
		{"last page of the address space", ^PAddr(0) &^ (PageBytes - 1)},
		{"span running out of DRAM", dramEnd - LineBytes},
		{"span running out of NVRAM", nvEnd - LineBytes},
	} {
		for name, access := range map[string]func(){
			"Peek":      func() { mem.Peek(tc.pa, buf) },
			"Poke":      func() { mem.Poke(tc.pa, buf) },
			"ReadLine":  func() { mem.ReadLine(tc.pa+LineBytes, buf, 0) },
			"WriteLine": func() { mem.WriteLine(tc.pa+LineBytes, buf, 0, stats.CatData) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: %s did not panic", tc.name, name)
					}
				}()
				access()
			}()
		}
	}
}

// A read of a never-written page copies out of the shared zero page: the
// caller's buffer is the caller's, and scribbling on it changes no later
// read of that page or of any other unwritten one.
func TestUnwrittenPageReadsAreCopies(t *testing.T) {
	cfg := sparseTestConfig()
	mem, other := New(cfg, &stats.Stats{}), New(cfg, &stats.Stats{})
	pa := cfg.NVRAMBase + 7*PageBytes
	buf := make([]byte, PageBytes)
	mem.Peek(pa, buf)
	for i := range buf {
		buf[i] = 0xFF
	}
	line := make([]byte, LineBytes)
	mem.ReadLine(pa, line, 0)
	for i := range line {
		line[i] = 0xFF
	}
	for _, m := range []*Memory{mem, other} {
		for _, at := range []PAddr{pa, pa + 9*PageBytes, 0} {
			got := bytes.Repeat([]byte{1}, PageBytes)
			m.Peek(at, got)
			if !bytes.Equal(got, make([]byte, PageBytes)) {
				t.Fatalf("unwritten page %#x no longer reads as zeros", at)
			}
		}
	}
}
