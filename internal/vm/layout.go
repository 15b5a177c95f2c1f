// Package vm defines the persistent physical layout of the simulated NVRAM,
// the durable flat page table mapping the persistent heap's virtual pages to
// frames, and the physical frame allocator.
//
// NVRAM layout (all regions page-aligned):
//
//	+0                superblock (magic, format record, root table)
//	+4 KiB            page table: MaxHeapPages PTEs of 8 bytes
//	...               persistent SSP slot array (SSPSlots × 64 B)
//	...               SSP metadata journal rings (JournalShards × JournalBytes)
//	...               per-core log regions (Cores × LogBytes), undo/redo
//	...               frame pool: data pages and SSP shadow pages
//
// The superblock, slot array, journal and log regions are parsed back out
// of the durable image during recovery.
package vm

import (
	"encoding/binary"
	"fmt"

	"repro/internal/memsim"
	"repro/internal/stats"
)

// HeapBase is the virtual address where the persistent heap begins. Virtual
// page numbers index the page table as (va-HeapBase)>>12.
const HeapBase = 0x10_0000_0000

// Superblock field offsets (bytes from SuperblockBase).
const (
	SBMagicOff    = 0
	SBFormatOff   = 8   // the format record: one u32 per formatField
	SBRootsOff    = 256 // RootSlots × 8 bytes
	RootSlots     = 64
	SBMagic       = 0x5353505f4d333231 // "SSP_M321"
	SuperblockLen = memsim.PageBytes
)

// MaxJournalShards bounds LayoutConfig.JournalShards (the same limit sizes
// the per-shard counter arrays in stats.Stats).
const MaxJournalShards = stats.MaxJournalShards

// LayoutConfig sizes the persistent regions.
type LayoutConfig struct {
	MaxHeapPages int // page table capacity
	SSPSlots     int // persistent SSP cache slots
	JournalBytes int // metadata journal ring capacity, per shard
	// JournalShards is the number of independent metadata journal regions
	// (default 1 = the paper's single shared journal). Each shard is an
	// independent JournalBytes ring with its own tail line, so commits on
	// different shards never serialise on one journal bank.
	JournalShards int
	LogBytes      int // per-core log region capacity (undo/redo)
	Cores         int
}

// DefaultLayoutConfig returns simulation-friendly defaults: a 1 K-entry SSP
// cache (§5.1 reserves ~1K entries), 64 KiB journal, 256 KiB per-core logs.
func DefaultLayoutConfig(cores int) LayoutConfig {
	return LayoutConfig{
		MaxHeapPages: 24 << 10, // 96 MiB of heap virtual space
		SSPSlots:     1024,
		JournalBytes: 64 << 10,
		LogBytes:     256 << 10,
		Cores:        cores,
	}
}

// Layout holds the resolved base addresses of every persistent region.
type Layout struct {
	Cfg LayoutConfig

	SuperblockBase memsim.PAddr
	PageTableBase  memsim.PAddr
	SSPSlotsBase   memsim.PAddr
	JournalBase    []memsim.PAddr // one per journal shard
	LogBase        []memsim.PAddr // one per core
	FramePoolBase  memsim.PAddr
	FramePoolEnd   memsim.PAddr
	Frames         int
}

func pageAlign(pa memsim.PAddr) memsim.PAddr {
	return (pa + memsim.PageBytes - 1) &^ (memsim.PageBytes - 1)
}

// NewLayout computes the region map for the given memory and layout
// configuration. It panics if NVRAM is too small to hold the metadata plus
// at least one frame; CheckLayout reports that case as an error.
func NewLayout(mcfg memsim.Config, cfg LayoutConfig) Layout {
	l, err := layout(mcfg, cfg)
	if err != nil {
		panic(err)
	}
	return l
}

// CheckLayout returns the error NewLayout would panic with, or nil.
func CheckLayout(mcfg memsim.Config, cfg LayoutConfig) error {
	_, err := layout(mcfg, cfg)
	return err
}

func layout(mcfg memsim.Config, cfg LayoutConfig) (Layout, error) {
	if cfg.JournalShards <= 0 {
		cfg.JournalShards = 1
	}
	if cfg.JournalShards > MaxJournalShards {
		return Layout{}, fmt.Errorf("vm: JournalShards %d exceeds MaxJournalShards %d", cfg.JournalShards, MaxJournalShards)
	}
	l := Layout{Cfg: cfg}
	p := mcfg.NVRAMBase
	l.SuperblockBase = p
	p += SuperblockLen
	l.PageTableBase = p
	p = pageAlign(p + memsim.PAddr(cfg.MaxHeapPages*8))
	l.SSPSlotsBase = p
	p = pageAlign(p + memsim.PAddr(cfg.SSPSlots*memsim.LineBytes))
	l.JournalBase = make([]memsim.PAddr, cfg.JournalShards)
	for i := range l.JournalBase {
		l.JournalBase[i] = p
		p = pageAlign(p + memsim.PAddr(cfg.JournalBytes))
	}
	l.LogBase = make([]memsim.PAddr, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		l.LogBase[i] = p
		p = pageAlign(p + memsim.PAddr(cfg.LogBytes))
	}
	l.FramePoolBase = pageAlign(p)
	end := mcfg.NVRAMBase + memsim.PAddr(mcfg.NVRAMBytes)
	if l.FramePoolBase >= end {
		return Layout{}, fmt.Errorf("vm: NVRAM too small for metadata regions: they need %d KiB of %d KiB",
			(l.FramePoolBase-mcfg.NVRAMBase)>>10, mcfg.NVRAMBytes>>10)
	}
	l.Frames = int((end - l.FramePoolBase) / memsim.PageBytes)
	l.FramePoolEnd = l.FramePoolBase + memsim.PAddr(l.Frames)*memsim.PageBytes
	return l, nil
}

// isFrameBase reports whether pa is the base address of a frame in the pool.
func (l *Layout) isFrameBase(pa memsim.PAddr) bool {
	return pa >= l.FramePoolBase && pa < l.FramePoolEnd && pa%memsim.PageBytes == 0
}

// FrameIndex converts a frame base address into its pool index.
func (l *Layout) FrameIndex(pa memsim.PAddr) int {
	if !l.isFrameBase(pa) {
		panic(fmt.Sprintf("vm: %#x is not a frame base", pa))
	}
	return int((pa - l.FramePoolBase) / memsim.PageBytes)
}

// FrameAddr converts a pool index into the frame's base address.
func (l *Layout) FrameAddr(idx int) memsim.PAddr {
	if idx < 0 || idx >= l.Frames {
		panic(fmt.Sprintf("vm: frame index %d out of range", idx))
	}
	return l.FramePoolBase + memsim.PAddr(idx)*memsim.PageBytes
}

// RootAddr returns the durable address of root slot i.
func (l *Layout) RootAddr(i int) memsim.PAddr {
	if i < 0 || i >= RootSlots {
		panic(fmt.Sprintf("vm: root slot %d out of range", i))
	}
	return l.SuperblockBase + SBRootsOff + memsim.PAddr(i*8)
}

// PTEAddr returns the durable address of the page-table entry for vpn.
func (l *Layout) PTEAddr(vpn int) memsim.PAddr {
	if vpn < 0 || vpn >= l.Cfg.MaxHeapPages {
		panic(fmt.Sprintf("vm: vpn %d out of page-table range", vpn))
	}
	return l.PageTableBase + memsim.PAddr(vpn*8)
}

// VPNOf converts a heap virtual address to its virtual page number.
func VPNOf(va uint64) int {
	if va < HeapBase {
		panic(fmt.Sprintf("vm: address %#x below heap base", va))
	}
	return int((va - HeapBase) >> memsim.PageShift)
}

// VAOf converts a virtual page number back to the page's base address.
func VAOf(vpn int) uint64 { return HeapBase + uint64(vpn)<<memsim.PageShift }

// formatField is one u32 of the superblock's format record.
type formatField struct {
	name string
	v    uint32
}

// formatFields lists what Format records after the magic: the backend and
// every layout field that places a region, in the order CheckFormat compares
// them. Recovery reads an image under the layout its configuration gives, so
// an image formatted under another one must be refused before it is parsed.
func formatFields(l Layout, backend int) [7]formatField {
	return [...]formatField{
		{"Backend", uint32(backend)},
		{"Cores", uint32(l.Cfg.Cores)},
		{"MaxHeapPages", uint32(l.Cfg.MaxHeapPages)},
		{"SSPSlots", uint32(l.Cfg.SSPSlots)},
		{"JournalBytes", uint32(l.Cfg.JournalBytes)},
		{"JournalShards", uint32(l.Cfg.JournalShards)},
		{"LogBytes", uint32(l.Cfg.LogBytes)},
	}
}

// superblockHead is the magic and the format record.
const superblockHead = SBFormatOff + 4*7

// Format initialises a fresh superblock in mem: the magic, the format record
// of backend (an opaque tag of the caller's) and l, and zero roots.
func Format(mem *memsim.Memory, l Layout, backend int) {
	var buf [superblockHead]byte
	binary.LittleEndian.PutUint64(buf[:], SBMagic)
	for i, f := range formatFields(l, backend) {
		binary.LittleEndian.PutUint32(buf[SBFormatOff+4*i:], f.v)
	}
	mem.Poke(l.SuperblockBase+SBMagicOff, buf[:])
}

// CheckFormat returns nil when mem carries a superblock Format wrote for
// backend and l, and otherwise an error naming what differs: no superblock
// at all, or the first recorded field whose value is not the one given.
func CheckFormat(mem *memsim.Memory, l Layout, backend int) error {
	var buf [superblockHead]byte
	mem.Peek(l.SuperblockBase+SBMagicOff, buf[:])
	if binary.LittleEndian.Uint64(buf[:]) != SBMagic {
		return fmt.Errorf("vm: image is not a formatted persistent heap")
	}
	for i, f := range formatFields(l, backend) {
		if got := binary.LittleEndian.Uint32(buf[SBFormatOff+4*i:]); got != f.v {
			return fmt.Errorf("vm: image was formatted with %s %d, the configuration gives %d", f.name, got, f.v)
		}
	}
	return nil
}
