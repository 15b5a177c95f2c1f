// Package ssp is the public API of the SSP reproduction: a simulated
// persistent-memory machine offering failure-atomic durable transactions
// through one of three hardware mechanisms — Shadow Sub-Paging (the paper's
// contribution), hardware undo logging, or DHTM-style hardware redo logging.
//
// Quick start:
//
//	m, err := ssp.New(ssp.Config{Backend: ssp.SSP, Cores: 1})
//	if err != nil { ... }           // out-of-range Config field
//	c := m.Core(0)
//
//	c.Begin()                       // ATOMIC_BEGIN
//	obj := m.Heap().Alloc(c, 64)    // persistent allocation
//	c.Store64(obj, 42)              // ATOMIC_STORE
//	c.SetRoot(c, 0, obj)            // (see Machine.SetRoot)
//	c.Commit()                      // ATOMIC_END: durable on return
//
//	img := m.Crash()                // power failure
//	m2, _ := ssp.Restore(m.ConfigUsed(), img)
//	m2.Core(0).Load64(obj)          // => 42
//
// Everything run serially is deterministic: identical Config and operation
// sequences produce identical timing and traffic statistics.
//
// # Concurrency
//
// A Machine supports two execution modes. Outside Machine.Run, every call
// runs on the caller's goroutine (the historical single-goroutine model;
// fully deterministic). Machine.Run(fn) executes fn once per Core, each on
// its own goroutine, under a deterministic bounded-lag window scheduler
// that lets one core execute at a time in simulated-time order:
//
//	m := ssp.MustNew(ssp.Config{Backend: ssp.SSP, Cores: 4})
//	m.Run(func(c *ssp.Core) {
//	    for i := 0; i < txnsPerCore; i++ { ... c.Begin(); ...; c.Commit() }
//	})
//
// The contract is one goroutine per Core: a Core handle must only be used
// by the goroutine Run hands it to. Shared machine structures (memory,
// caches, page table, backend metadata) need no synchronisation; isolation
// of application data remains the program's job via Lock, exactly as in
// the paper. Machine-level calls (Stats, Drain, Crash, Recover, Restore)
// must not overlap a Run. The whole run — Stats included — is
// byte-identical across same-seed executions, unless a core waits on a
// host-side event (Core.BlockExternal, the network server).
//
// Allocation in concurrent code goes through per-core Arenas (Machine.
// NewArena) rather than the shared Heap, so no two cores ever issue
// transactional stores to the same allocator metadata line.
//
// # Cross-shard transactions
//
// Core.BeginGlobal opens a section that may write pages owned by multiple
// arenas/journal shards (Config.JournalShards). SSP commits it with a
// two-phase protocol over the participant shards — prepare records in each,
// one coordinator end record — and recovery makes it all-or-nothing across
// every shard. Acquire the Lock of every structure such a section touches,
// in one consistent order, before BeginGlobal. On the logging backends, or
// with a single journal shard, BeginGlobal behaves exactly like Begin.
package ssp

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/memsim"
	"repro/internal/pheap"
	"repro/internal/stats"
	"repro/internal/vm"
)

// Backend selects the failure-atomicity mechanism.
type Backend = machine.BackendKind

// The three designs the paper evaluates (§5.1).
const (
	SSP     = machine.SSP
	UndoLog = machine.UndoLog
	RedoLog = machine.RedoLog
)

// Backends lists all designs in the paper's report order.
func Backends() []Backend { return machine.Backends() }

// Core is a simulated core's transactional interface (Begin / Store64 /
// Load64 / StoreBytes / LoadBytes / Commit / Abort / Acquire / Release).
type Core = machine.Core

// Lock is a simulated mutex serialising critical sections in simulated
// time.
type Lock = machine.Lock

// Heap is the persistent heap allocator (Alloc/Free inside transactions).
type Heap = pheap.Heap

// Arena is a per-core allocation shard of the heap: disjoint pages, own
// free lists, own metadata page. Used by concurrent workloads so cores
// never contend (or conflict transactionally) on allocator metadata.
type Arena = pheap.Arena

// Allocator is the allocation interface shared by *Heap and *Arena; the
// persistent data structures in ssp/pds and ssp/kv accept either.
type Allocator = pheap.Allocator

// Stats is the counter set every experiment derives its numbers from.
type Stats = stats.Stats

// WriteSetStats is the per-transaction write-set characterisation
// (Table 3).
type WriteSetStats = machine.WriteSetStats

// WindowStats is the deterministic window scheduler's per-Run activity
// report (see Machine.WindowStats).
type WindowStats = machine.WindowStats

// Cycles is simulated time in core clock cycles (3.7 GHz by default).
type Cycles = engine.Cycles

// Image is the durable NVRAM contents a crashed machine leaves behind
// (Machine.Crash), the input of Restore. It is immutable and holds each NVRAM
// page the run wrote by reference, shared copy-on-write with the crashed
// machine and with every machine restored from it, so its cost follows what
// the run touched rather than Config.NVRAMMB, and no write through any of
// those machines ever shows in the image or in another machine.
type Image = memsim.Image

// MaxChannels is the largest supported Config.Channels.
const MaxChannels = memsim.MaxChannels

// MaxJournalShards is the largest supported Config.JournalShards.
const MaxJournalShards = vm.MaxJournalShards

// JournalShardPressure is one SSP metadata-journal shard's state at a
// quiescent point: ring fill, records appended and checkpoints drained
// (see Machine.JournalPressure).
type JournalShardPressure = machine.JournalShardPressure

// HeapBase is the first virtual address of the persistent heap.
const HeapBase = vm.HeapBase

// RootSlots is the number of named persistent root slots.
const RootSlots = pheap.RootSlots

// Config selects the machine to simulate. The zero value of any field
// falls back to the paper's Table 2 parameters. Every field is set to a
// non-zero value by some gated paper-figures row or crash class row:
// TestPaperFigures fails, naming the field, when one is not.
type Config struct {
	Backend Backend
	Cores   int // default 1

	// NVRAM latencies in nanoseconds (Table 2: 50/200).
	NVRAMReadNS  float64
	NVRAMWriteNS float64

	// Multi-channel memory model (beyond the paper's single-channel
	// Table 2). Channels splits memory into independent channels,
	// interleaved every cache line, each with its own banks and data-bus
	// timeline, so concurrent cores only contend on memory they genuinely
	// share.
	Channels int // independent memory channels (default 1, max 16)

	// Capacities.
	NVRAMMB      int // simulated NVRAM size (default 128)
	DRAMMB       int // simulated DRAM size (default 32)
	MaxHeapPages int // persistent heap limit in 4 KiB pages
	JournalKB    int // SSP metadata journal region, per shard
	TLBEntries   int // per-core L1 DTLB entries (default 64)
	STLBEntries  int // per-core L2 STLB entries (default 1024; -1 disables)
	L2KB         int // per-core L2 capacity in KiB (default 256; min 32)
	L3KB         int // shared L3 capacity in KiB (default 12288; min 64)

	// JournalShards splits the SSP metadata journal into independent
	// per-core regions (default 1 = the paper's single shared journal; max
	// MaxJournalShards). Each committing core appends its batches to shard
	// core mod JournalShards with its own buffered tail line, TIDs come
	// from one global monotonic allocator, and recovery merges the shards
	// back into a single TID-ordered replay. With one shard every commit's
	// journal append and tail-line flush serialises on one NVRAM bank —
	// SSP's main multi-core Amdahl term; sharding removes it.
	JournalShards int

	// SSP mechanism knobs.
	SSPCacheLatency Cycles // SSP cache access latency in cycles (Figure 9)
	SSPResident     int    // L3-resident SSP cache entries
	SubPageLines    int    // persistence granularity in lines (§4.3; 1 or 4)
	WSBEntries      int    // write-set buffer capacity in pages (§4.2)

	// DurabilityEpoch, in cycles, enables the relaxed-durability commit
	// mode: Core.CommitRelaxed acknowledges a transaction as soon as its
	// journal batch is buffered, and each metadata-journal shard hardens
	// its open epoch — pending data fences, one epoch-seal record, one ring
	// flush, slot publication — once the epoch's age reaches this bound (or
	// earlier: at Core.Sync, Machine.Drain, any synchronous flush of the
	// shard, or a checkpoint). A crash loses at most the open epochs, each
	// atomically: recovery replays every shard only up to its last epoch
	// seal, so an acknowledged-but-unhardened transaction disappears
	// entirely — never partially — and Stats.LostEpochTxns counts it.
	// 0 = the paper's synchronous model, bit-for-bit; Core.Commit is always
	// synchronous regardless.
	DurabilityEpoch int
	// TimeWindow, in cycles, is the window of Machine.Run's deterministic
	// bounded-lag scheduler: cores advance in lockstep windows of this many
	// simulated cycles and execution within a window is serialised in
	// min-(clock, core-index) order, so all shared-hardware arbitration —
	// memory bank and bus occupancy, row-buffer transitions, cache
	// ownership transfers, lock hand-off, epoch hardening — is resolved in
	// simulated-time order and two runs with the same seed and core count
	// produce byte-identical Stats (see Machine.WindowStats for the
	// scheduler's own counters). A Run uses one host core at a time; the
	// window only bounds how far one core's bookings run ahead of the
	// laggard's clock. 0 (default) selects 4096 cycles.
	TimeWindow int
	// DRAMCacheFrames interposes a pager-style DRAM buffer cache of this
	// many 4 KiB frames between the CPU cache hierarchy and the NVRAM data
	// frame pool (beyond the paper). Clean fills and re-reads are served at
	// DRAM timing; clean cache victims evicted by capacity pressure are
	// absorbed in DRAM instead of rewritten to NVRAM, cutting NVRAM data
	// writes. Durability is unchanged: commit-path flushes write through to
	// NVRAM, and a fence over a line whose only dirty copy sits in the
	// buffer hardens it first. The frames must fit in DRAMMB. 0 (default)
	// is the paper's bare-NVRAM model, bit-for-bit.
	DRAMCacheFrames int
	// LazyConsolidation defers consolidation until slot pressure demands
	// it (the paper's §3.4 future-work variant).
	LazyConsolidation bool
	// FlipViaShootdown replaces the flip-current-bit broadcast with TLB
	// shootdowns (§4.3's simpler-hardware alternative).
	FlipViaShootdown bool

	// REDO-LOG knob. RedoWriteBackEngines is the number of background
	// write-back engines (default 1 = DHTM's single engine per memory
	// controller, which pins REDO-LOG's parallel speedup near 1x; per-core
	// engines ablate that serialisation — `sspbench -exp ablate`).
	RedoWriteBackEngines int
}

// apply converts the public Config into the internal machine config.
func (c Config) apply() machine.Config {
	cores := c.Cores
	if cores <= 0 {
		cores = 1
	}
	mc := machine.DefaultConfig(c.Backend, cores)
	if c.Channels > 0 {
		mc.Mem.Channels = c.Channels
	}
	if c.NVRAMReadNS > 0 {
		mc.Mem.NVRAMRead = c.NVRAMReadNS
	}
	if c.NVRAMWriteNS > 0 {
		mc.Mem.NVRAMWrite = c.NVRAMWriteNS
	}
	if c.NVRAMMB > 0 {
		mc.Mem.NVRAMBytes = uint64(c.NVRAMMB) << 20
	}
	if c.DRAMMB > 0 {
		mc.Mem.DRAMBytes = uint64(c.DRAMMB) << 20
	}
	if c.MaxHeapPages > 0 {
		mc.Layout.MaxHeapPages = c.MaxHeapPages
	}
	if c.JournalKB > 0 {
		mc.Layout.JournalBytes = c.JournalKB << 10
	}
	if c.JournalShards > 0 {
		mc.Layout.JournalShards = c.JournalShards
	}
	if c.L2KB > 0 {
		mc.Cache.L2Bytes = c.L2KB << 10
	}
	if c.L3KB > 0 {
		mc.Cache.L3Bytes = c.L3KB << 10
	}
	if c.TLBEntries > 0 {
		mc.TLBEntries = c.TLBEntries
	}
	if c.STLBEntries > 0 {
		mc.STLBEntries = c.STLBEntries
	} else if c.STLBEntries < 0 {
		mc.STLBEntries = 0
	}
	if c.TLBEntries > 0 || c.STLBEntries != 0 {
		// Re-derive the N·T+O sizing for the overridden TLB reach.
		mc.SSP.Entries = cores*(mc.TLBEntries+mc.STLBEntries) + 64
		mc.Layout.SSPSlots = mc.SSP.Entries
	}
	if c.SSPCacheLatency > 0 {
		mc.SSP.CacheHitLat = c.SSPCacheLatency
	}
	if c.SSPResident > 0 {
		mc.SSP.ResidentEntries = c.SSPResident
	}
	if c.SubPageLines > 0 {
		mc.SSP.SubPageLines = c.SubPageLines
	}
	if c.WSBEntries > 0 {
		mc.SSP.WSBEntries = c.WSBEntries
	}
	mc.DRAMCacheFrames = c.DRAMCacheFrames
	mc.SSP.LazyConsolidation = c.LazyConsolidation
	mc.SSP.FlipViaShootdown = c.FlipViaShootdown
	if c.TimeWindow > 0 {
		mc.TimeWindow = engine.Cycles(c.TimeWindow)
	}
	if c.DurabilityEpoch > 0 {
		mc.SSP.DurabilityEpoch = engine.Cycles(c.DurabilityEpoch)
	}
	if c.RedoWriteBackEngines > 0 {
		mc.Redo.WriteBackEngines = c.RedoWriteBackEngines
	}
	return mc
}

// Machine is one simulated system.
type Machine struct {
	*machine.Machine
	cfg Config
}

// Validate checks every Config field against its legal range, and that the
// NVRAM holds the metadata regions the configuration sizes. New and Restore
// call it; the zero value of any field is always legal (it selects the
// default).
func (c Config) Validate() error {
	if c.Backend < SSP || c.Backend > RedoLog {
		return fmt.Errorf("ssp: Backend is %d, want SSP, UndoLog or RedoLog", int(c.Backend))
	}
	if c.Cores < 0 {
		return fmt.Errorf("ssp: Cores is %d, want >= 0 (0 selects the default, 1)", c.Cores)
	}
	if c.Channels < 0 || c.Channels > MaxChannels {
		return fmt.Errorf("ssp: Channels is %d, want 0..%d (0 selects the default, 1)", c.Channels, MaxChannels)
	}
	if c.JournalShards < 0 || c.JournalShards > MaxJournalShards {
		return fmt.Errorf("ssp: JournalShards is %d, want 0..%d (0 selects the default, 1)", c.JournalShards, MaxJournalShards)
	}
	if c.NVRAMReadNS < 0 {
		return fmt.Errorf("ssp: NVRAMReadNS is %v, want >= 0 (0 selects the Table 2 default)", c.NVRAMReadNS)
	}
	if c.NVRAMWriteNS < 0 {
		return fmt.Errorf("ssp: NVRAMWriteNS is %v, want >= 0 (0 selects the Table 2 default)", c.NVRAMWriteNS)
	}
	for _, f := range []struct {
		name string
		v    int64
	}{
		{"NVRAMMB", int64(c.NVRAMMB)},
		{"DRAMMB", int64(c.DRAMMB)},
		{"MaxHeapPages", int64(c.MaxHeapPages)},
		{"JournalKB", int64(c.JournalKB)},
		{"TLBEntries", int64(c.TLBEntries)},
		{"SSPCacheLatency", int64(c.SSPCacheLatency)},
		{"SSPResident", int64(c.SSPResident)},
		{"WSBEntries", int64(c.WSBEntries)},
		{"RedoWriteBackEngines", int64(c.RedoWriteBackEngines)},
	} {
		if f.v < 0 {
			return fmt.Errorf("ssp: %s is %d, want >= 0 (0 selects the default)", f.name, f.v)
		}
	}
	if c.SubPageLines != 0 && c.SubPageLines != 1 && c.SubPageLines != 4 {
		return fmt.Errorf("ssp: SubPageLines is %d, want 1 or 4 (0 selects the default, 1)", c.SubPageLines)
	}
	if c.TimeWindow < 0 {
		return fmt.Errorf("ssp: TimeWindow is %d cycles, want >= 0 (0 selects the default, 4096)", c.TimeWindow)
	}
	if c.DurabilityEpoch < 0 {
		return fmt.Errorf("ssp: DurabilityEpoch is %d cycles, want >= 0 (0 keeps every commit synchronous)", c.DurabilityEpoch)
	}
	if c.L2KB < 0 || (c.L2KB > 0 && c.L2KB < 32) {
		return fmt.Errorf("ssp: L2KB is %d, want 0 or >= 32 (0 selects the default, 256)", c.L2KB)
	}
	if c.L3KB < 0 || (c.L3KB > 0 && c.L3KB < 64) {
		return fmt.Errorf("ssp: L3KB is %d, want 0 or >= 64 (0 selects the default, 12288)", c.L3KB)
	}
	if c.DRAMCacheFrames < 0 {
		return fmt.Errorf("ssp: DRAMCacheFrames is %d, want >= 0 (0 disables the DRAM buffer cache)", c.DRAMCacheFrames)
	}
	if c.DRAMCacheFrames > 0 {
		dramBytes := uint64(32) << 20
		if c.DRAMMB > 0 {
			dramBytes = uint64(c.DRAMMB) << 20
		}
		if uint64(c.DRAMCacheFrames)*PageBytes > dramBytes {
			return fmt.Errorf("ssp: DRAMCacheFrames is %d (%d KiB), want <= DRAM capacity %d MiB",
				c.DRAMCacheFrames, c.DRAMCacheFrames*4, dramBytes>>20)
		}
	}
	mc := c.apply()
	if err := vm.CheckLayout(mc.Mem, mc.Layout); err != nil {
		return fmt.Errorf("ssp: NVRAMMB (%d MiB) cannot hold the metadata regions sized by Cores (%d), TLBEntries, STLBEntries, MaxHeapPages, JournalKB and JournalShards: %v",
			mc.Mem.NVRAMBytes>>20, mc.Cores, err)
	}
	// SSP reserves one spare frame per SSP cache entry before the heap's
	// first page is mapped (core.NewSSP).
	if frames := vm.NewLayout(mc.Mem, mc.Layout).Frames; c.Backend == SSP && frames <= mc.SSP.Entries {
		return fmt.Errorf("ssp: NVRAMMB (%d MiB) leaves %d frames beside the metadata regions; SSP needs the N·T+O = %d spare frames of its cache (Cores × (TLBEntries + STLBEntries) + 64) and the heap's first page",
			mc.Mem.NVRAMBytes>>20, frames, mc.SSP.Entries)
	}
	return nil
}

// New builds and formats a fresh machine. It returns an error — naming the
// offending field and its legal range — when the configuration is out of
// range (see Config.Validate).
func New(cfg Config) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if machine.RecordConfig != nil {
		machine.RecordConfig(cfg)
	}
	return &Machine{Machine: machine.New(cfg.apply()), cfg: cfg}, nil
}

// MustNew is New for call sites with no useful error path (examples, tests,
// benchmark drivers): it panics when the configuration is out of range.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Restore boots a machine from a crashed machine's NVRAM image and runs
// recovery. The configuration must match the image's. Restore installs the
// image's pages shared rather than copying them — the restored machine
// copies a page on its first write to it — so it costs a pointer per page
// plus recovery, and one image may be restored any number of times, from any
// goroutine. A corrupt image is an error, not a panic: recovery refuses, for
// instance, a page-table entry that is not a frame base or a frame mapped
// twice.
func Restore(cfg Config, image Image) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m, err := machine.Restore(cfg.apply(), image)
	if err != nil {
		return nil, err
	}
	return &Machine{Machine: m, cfg: cfg}, nil
}

// ConfigUsed returns the Config the machine was built with.
func (m *Machine) ConfigUsed() Config { return m.cfg }

// Run executes fn once per core, each on its own goroutine under the window
// scheduler, and returns when all of them finish. See the package
// comment for the full contract (one goroutine per Core, no machine-level
// calls until Run returns).
func (m *Machine) Run(fn func(c *Core)) { m.Machine.Run(fn) }

// NewArena carves a per-core allocation arena of the given page count from
// the heap inside tx's open transaction. Create arenas during (serial)
// setup, then hand one to each core before Run.
func (m *Machine) NewArena(tx *Core, pages int) *Arena {
	return m.Heap().NewArena(tx, pages)
}

// FreqGHz returns the simulated core frequency.
func (m *Machine) FreqGHz() float64 { return m.Machine.Config().Mem.FreqGHz }

// Seconds converts a cycle count to simulated seconds.
func (m *Machine) Seconds(c Cycles) float64 {
	return float64(c) / (m.FreqGHz() * 1e9)
}

// RootVA returns the virtual address of persistent root slot i; roots are
// plain 8-byte words updated transactionally.
func RootVA(i int) uint64 { return pheap.RootVA(i) }

// SetRoot stores va into root slot i within tx's open transaction.
func (m *Machine) SetRoot(tx *Core, i int, va uint64) { tx.Store64(RootVA(i), va) }

// Root loads root slot i.
func (m *Machine) Root(tx *Core, i int) uint64 { return tx.Load64(RootVA(i)) }

// PageBytes and LineBytes expose the machine geometry.
const (
	PageBytes = memsim.PageBytes
	LineBytes = memsim.LineBytes
)
