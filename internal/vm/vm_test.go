package vm

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
)

func testEnv(t *testing.T) (*memsim.Memory, Layout, *stats.Stats) {
	t.Helper()
	st := &stats.Stats{}
	mcfg := memsim.DefaultConfig()
	mcfg.DRAMBytes = 1 << 20
	mcfg.NVRAMBytes = 16 << 20
	lcfg := DefaultLayoutConfig(2)
	lcfg.MaxHeapPages = 512
	lcfg.SSPSlots = 64
	lcfg.JournalBytes = 8 << 10
	lcfg.LogBytes = 16 << 10
	mem := memsim.New(mcfg, st)
	l := NewLayout(mcfg, lcfg)
	return mem, l, st
}

func TestLayoutRegionsDisjointAndOrdered(t *testing.T) {
	_, l, _ := testEnv(t)
	if l.PageTableBase <= l.SuperblockBase {
		t.Error("page table overlaps superblock")
	}
	if l.SSPSlotsBase < l.PageTableBase+memsim.PAddr(l.Cfg.MaxHeapPages*8) {
		t.Error("SSP slots overlap page table")
	}
	if l.JournalBase[0] < l.SSPSlotsBase+memsim.PAddr(l.Cfg.SSPSlots*64) {
		t.Error("journal overlaps SSP slots")
	}
	if l.LogBase[0] < l.JournalBase[len(l.JournalBase)-1]+memsim.PAddr(l.Cfg.JournalBytes) {
		t.Error("log overlaps journal")
	}
	if l.LogBase[1] < l.LogBase[0]+memsim.PAddr(l.Cfg.LogBytes) {
		t.Error("core logs overlap")
	}
	if l.FramePoolBase < l.LogBase[1]+memsim.PAddr(l.Cfg.LogBytes) {
		t.Error("frame pool overlaps logs")
	}
	if l.FramePoolBase%memsim.PageBytes != 0 {
		t.Error("frame pool not page aligned")
	}
	if l.Frames <= 0 {
		t.Error("no frames")
	}
}

func TestFrameIndexRoundTrip(t *testing.T) {
	_, l, _ := testEnv(t)
	for _, idx := range []int{0, 1, l.Frames - 1} {
		pa := l.FrameAddr(idx)
		if l.FrameIndex(pa) != idx {
			t.Errorf("frame %d round trip failed", idx)
		}
	}
}

func TestVPNHelpers(t *testing.T) {
	va := uint64(HeapBase + 5*memsim.PageBytes + 123)
	if VPNOf(va) != 5 {
		t.Errorf("VPNOf = %d", VPNOf(va))
	}
	if VAOf(5) != HeapBase+5*memsim.PageBytes {
		t.Errorf("VAOf = %#x", VAOf(5))
	}
}

func TestFormatAndDetect(t *testing.T) {
	mem, l, _ := testEnv(t)
	if CheckFormat(mem, l, 0) == nil {
		t.Fatal("fresh memory reported formatted")
	}
	Format(mem, l, 0)
	if err := CheckFormat(mem, l, 0); err != nil {
		t.Fatalf("formatted memory not detected: %v", err)
	}
	if err := CheckFormat(mem, l, 1); err == nil || !strings.Contains(err.Error(), "Backend 0") {
		t.Errorf("another backend's image: %v, want an error naming Backend", err)
	}
	other := l
	other.Cfg.SSPSlots++
	if err := CheckFormat(mem, other, 0); err == nil || !strings.Contains(err.Error(), "SSPSlots") {
		t.Errorf("another layout's image: %v, want an error naming SSPSlots", err)
	}
}

func TestPageTableSetLookupWalk(t *testing.T) {
	mem, l, _ := testEnv(t)
	pt := NewPageTable(mem, l)
	frame := l.FrameAddr(3)
	pt.Set(7, frame, 0)
	pa, ok := pt.Lookup(7)
	if !ok || pa != frame {
		t.Fatalf("lookup: %#x %v", pa, ok)
	}
	pa, done, ok := pt.Walk(7, 100)
	if !ok || pa != frame || done <= 100 {
		t.Fatalf("walk: %#x %d %v", pa, done, ok)
	}
	if _, ok := pt.Lookup(8); ok {
		t.Error("unmapped vpn resolved")
	}
	if _, ok := pt.Lookup(-1); ok {
		t.Error("negative vpn resolved")
	}
}

func TestPageTableRebuildFromDurable(t *testing.T) {
	mem, l, _ := testEnv(t)
	pt := NewPageTable(mem, l)
	f1, f2 := l.FrameAddr(1), l.FrameAddr(2)
	pt.Set(0, f1, 0)
	pt.Set(100, f2, 0)

	// Fresh mirror from the same durable memory.
	pt2 := NewPageTable(mem, l)
	if _, ok := pt2.Lookup(0); ok {
		t.Fatal("fresh mirror should be empty before Rebuild")
	}
	pt2.Rebuild()
	if pa, ok := pt2.Lookup(0); !ok || pa != f1 {
		t.Error("rebuild lost vpn 0")
	}
	if pa, ok := pt2.Lookup(100); !ok || pa != f2 {
		t.Error("rebuild lost vpn 100")
	}
	mapped := pt2.Mapped()
	if len(mapped) != 2 {
		t.Errorf("mapped count = %d", len(mapped))
	}
}

// Rebuild reads the PTE array a page at a time: entries on either side of a
// window boundary and in a short last window all come back, and a second
// rebuild of a grown mirror allocates nothing.
func TestPageTableRebuildAcrossWindows(t *testing.T) {
	mem, _, _ := testEnv(t)
	lcfg := DefaultLayoutConfig(2)
	lcfg.MaxHeapPages = 1300
	l := NewLayout(mem.Config(), lcfg)
	pt := NewPageTable(mem, l)
	vpns := []int{0, 511, 512, 1023, 1024, 1299}
	for i, vpn := range vpns {
		pt.Set(vpn, l.FrameAddr(i+1), 0)
	}
	pt2 := NewPageTable(mem, l)
	pt2.Rebuild()
	for i, vpn := range vpns {
		if pa, ok := pt2.Lookup(vpn); !ok || pa != l.FrameAddr(i+1) {
			t.Errorf("rebuild gave vpn %d -> %#x, %v; want %#x", vpn, pa, ok, l.FrameAddr(i+1))
		}
	}
	if n := len(pt2.Mapped()); n != len(vpns) {
		t.Errorf("rebuild mapped %d pages, want %d", n, len(vpns))
	}
	if n := testing.AllocsPerRun(5, pt2.Rebuild); n != 0 {
		t.Errorf("a repeated Rebuild allocated %.1f times", n)
	}
}

// FrameAlloc.Rebuild reserves what a reset and one reserve per mapped or
// spare frame, then one ReserveRange of the formatted slots' spares, would:
// the two allocators hand out the same frames from then on.
func TestFrameAllocRebuild(t *testing.T) {
	mem, l, _ := testEnv(t)
	pt := NewPageTable(mem, l)
	for vpn, idx := range []int{7, 13, 12} {
		pt.Set(vpn*5, l.FrameAddr(idx), 0)
	}
	spares := []int{0, 9, 14}
	const formatted = 6
	got, want := NewFrameAlloc(l), NewFrameAlloc(l)
	got.Alloc()
	if err := got.Rebuild(pt, len(spares), formatted, func(i int) memsim.PAddr { return l.FrameAddr(spares[i]) }); err != nil {
		t.Fatal(err)
	}
	for _, m := range pt.Mapped() {
		want.reserve(m.Frame)
	}
	for _, idx := range spares {
		want.reserve(l.FrameAddr(idx))
	}
	want.ReserveRange(len(spares), formatted)
	if got.InUse() != want.InUse() {
		t.Fatalf("Rebuild left %d frames in use, reserve %d", got.InUse(), want.InUse())
	}
	for i := 0; i < 20; i++ {
		if g, w := got.Alloc(), want.Alloc(); g != w {
			t.Fatalf("allocation %d after Rebuild: frame %d, after reserve %d", i, l.FrameIndex(g), l.FrameIndex(w))
		}
	}
}

// A corrupt page table is an error of Rebuild, never a panic: a PTE that is
// not a frame base in the pool, and a frame claimed twice — by two VPNs, by
// a VPN and a decoded slot's spare, or by a VPN and a formatted slot's spare.
// The error names the claimants and the value.
func TestFrameAllocRebuildRejectsCorruptPageTable(t *testing.T) {
	mem, l, _ := testEnv(t)
	spare := func(i int) memsim.PAddr { return l.FrameAddr(20 + i) }
	for _, tc := range []struct {
		name string
		ptes map[int]memsim.PAddr
		want string
	}{
		{"below the pool", map[int]memsim.PAddr{3: l.FrameAddr(2) - l.FramePoolBase}, "vpn 3 maps"},
		{"past the pool", map[int]memsim.PAddr{3: l.FramePoolEnd}, "vpn 3 maps"},
		{"not page aligned", map[int]memsim.PAddr{3: l.FrameAddr(2) + 8}, "not a frame base"},
		{"two VPNs", map[int]memsim.PAddr{3: l.FrameAddr(2), 9: l.FrameAddr(2)}, "mapped by vpn 3 and by vpn 9"},
		{"a decoded spare", map[int]memsim.PAddr{3: l.FrameAddr(21)}, "is vpn 3 and slot 1's spare"},
		{"a formatted spare", map[int]memsim.PAddr{3: l.FrameAddr(2)}, "is vpn 3 and slot 2's spare"},
	} {
		pt := NewPageTable(mem, l)
		for vpn, pa := range tc.ptes {
			pt.SetMirror(vpn, pa)
		}
		spares, formatted := 2, 2
		if tc.name == "a formatted spare" {
			formatted = 4
		}
		err := NewFrameAlloc(l).Rebuild(pt, spares, formatted, spare)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Rebuild returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestPageTableSetMirrorIsVolatile(t *testing.T) {
	mem, l, _ := testEnv(t)
	pt := NewPageTable(mem, l)
	pt.SetMirror(4, l.FrameAddr(4))
	pt2 := NewPageTable(mem, l)
	pt2.Rebuild()
	if _, ok := pt2.Lookup(4); ok {
		t.Error("SetMirror leaked to durable state")
	}
}

func TestFrameAllocLifecycle(t *testing.T) {
	_, l, _ := testEnv(t)
	fa := NewFrameAlloc(l)
	if fa.InUse() != 0 {
		t.Fatalf("in use = %d, want 0", fa.InUse())
	}
	a := fa.Alloc()
	b := fa.Alloc()
	if a != l.FrameAddr(0) || b != l.FrameAddr(1) {
		t.Fatalf("Alloc returned frames %#x, %#x, want the pool's first two in order", a, b)
	}
	if fa.InUse() != 2 {
		t.Errorf("in use = %d", fa.InUse())
	}
}

func TestFrameAllocReserveAndReset(t *testing.T) {
	_, l, _ := testEnv(t)
	fa := NewFrameAlloc(l)
	pa := l.FrameAddr(5)
	fa.reserve(pa)
	// Alloc must never hand out the reserved frame.
	seen := map[memsim.PAddr]bool{}
	for i := 0; i < l.Frames-1; i++ {
		f := fa.Alloc()
		if f == pa {
			t.Fatal("reserved frame allocated")
		}
		if seen[f] {
			t.Fatal("duplicate allocation")
		}
		seen[f] = true
	}
	fa.reset()
	if fa.InUse() != 0 || fa.Alloc() != l.FrameAddr(0) {
		t.Error("reset did not clear state")
	}
}

func TestRootAddrBounds(t *testing.T) {
	_, l, _ := testEnv(t)
	a0 := l.RootAddr(0)
	if a0 != l.SuperblockBase+SBRootsOff {
		t.Errorf("root 0 at %#x", a0)
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range root should panic")
		}
	}()
	l.RootAddr(RootSlots)
}

// Rebuild's cost follows the page table's written pages, not its size: on
// the paper's default 24 576-page heap holding 3 mappings it reads the PTE
// pages the 3 entries live in and skips the other 45; a page whose only
// mapping was undone is still read, and maps nothing.
func TestPageTableRebuildReadsWrittenPages(t *testing.T) {
	mem, _, _ := testEnv(t)
	mcfg := mem.Config()
	mcfg.NVRAMBytes = 128 << 20
	mem = memsim.New(mcfg, &stats.Stats{})
	lcfg := DefaultLayoutConfig(1)
	lcfg.MaxHeapPages = 24576
	l := NewLayout(mcfg, lcfg)
	pt := NewPageTable(mem, l)
	vpns := []int{3, 7000, 24575} // PTE pages 0, 13 and 47
	for i, vpn := range vpns {
		pt.Set(vpn, l.FrameAddr(i+1), 0)
	}
	pt.Set(10000, l.FrameAddr(9), 0)
	pt.Set(10000, 0, 0) // PTE page 19: written, maps nothing
	pt2 := NewPageTable(mem, l)
	pt2.Rebuild()
	if pt2.rebuildReads != 4 {
		t.Errorf("Rebuild read %d PTE pages of %d, want the 4 written", pt2.rebuildReads, (lcfg.MaxHeapPages+511)/512)
	}
	if got := pt2.Mapped(); len(got) != len(vpns) {
		t.Fatalf("Rebuild mapped %v, want vpns %v", got, vpns)
	}
	for i, vpn := range vpns {
		if pa, ok := pt2.Lookup(vpn); !ok || pa != l.FrameAddr(i+1) {
			t.Errorf("vpn %d -> %#x, %v; want %#x", vpn, pa, ok, l.FrameAddr(i+1))
		}
	}
}

// reserveRange marks whole 64-frame words: on ranges that start, end and
// meet a used frame anywhere in a word, or span several words, it leaves the
// same frames marked, the same count in use and the same cursor, and
// reports the same first used frame, as marking one frame at a time did.
func TestReserveRangeMatchesBitModel(t *testing.T) {
	_, l, _ := testEnv(t)
	// bitReserve is the frame-at-a-time loop reserveRange replaced.
	bitReserve := func(fa *FrameAlloc, lo, hi int) int {
		if lo >= hi {
			return -1
		}
		fa.grow(hi)
		for idx := lo; idx < hi; idx++ {
			if fa.isUsed(idx) {
				return idx
			}
			fa.used[idx>>6] |= 1 << (idx & 63)
		}
		fa.inUse += hi - lo
		if fa.next == lo {
			fa.next = hi
		}
		return -1
	}
	rng := engine.NewRNG(0x5EED)
	for trial := 0; trial < 2000; trial++ {
		got, want := NewFrameAlloc(l), NewFrameAlloc(l)
		for i := rng.Intn(4); i > 0; i-- { // frames already in use
			idx := rng.Intn(320)
			if !got.isUsed(idx) {
				got.take(idx)
				want.take(idx)
			}
		}
		if rng.Intn(2) == 0 {
			got.next, want.next = 64, 64
		}
		lo := rng.Intn(256)
		if rng.Intn(3) == 0 {
			lo &^= 63 // a range from a word boundary
		}
		hi := lo + rng.Intn(200)
		if rng.Intn(3) == 0 {
			hi = (hi + 63) &^ 63 // to a word boundary
		}
		g, w := got.reserveRange(lo, hi), bitReserve(want, lo, hi)
		if g != w || got.inUse != want.inUse || got.next != want.next || fmt.Sprint(got.DebugUsed()) != fmt.Sprint(want.DebugUsed()) {
			t.Fatalf("trial %d, range [%d, %d): reserveRange returned %d, in use %d, next %d, used %v; the bit loop %d, %d, %d, %v",
				trial, lo, hi, g, got.inUse, got.next, got.DebugUsed(), w, want.inUse, want.next, want.DebugUsed())
		}
	}
}
