// Package vm defines the persistent physical layout of the simulated NVRAM,
// the durable flat page table mapping the persistent heap's virtual pages to
// frames, and the physical frame allocator.
//
// NVRAM layout (all regions page-aligned):
//
//	+0                superblock (magic, root table)
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

// FrameIndex converts a frame base address into its pool index.
func (l *Layout) FrameIndex(pa memsim.PAddr) int {
	if pa < l.FramePoolBase || pa >= l.FramePoolEnd || pa%memsim.PageBytes != 0 {
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

// Format initialises a fresh superblock (magic + zero roots) in mem.
func Format(mem *memsim.Memory, l Layout) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], SBMagic)
	mem.Poke(l.SuperblockBase+SBMagicOff, buf[:])
}

// IsFormatted reports whether mem carries a formatted superblock.
func IsFormatted(mem *memsim.Memory, l Layout) bool {
	var buf [8]byte
	mem.Peek(l.SuperblockBase+SBMagicOff, buf[:])
	return binary.LittleEndian.Uint64(buf[:]) == SBMagic
}
