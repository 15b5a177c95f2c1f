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
// its own goroutine, so the simulated cores genuinely run in parallel on
// the host:
//
//	m := ssp.MustNew(ssp.Config{Backend: ssp.SSP, Cores: 4})
//	m.Run(func(c *ssp.Core) {
//	    for i := 0; i < txnsPerCore; i++ { ... c.Begin(); ...; c.Commit() }
//	})
//
// The contract is one goroutine per Core: a Core handle must only be used
// by the goroutine Run hands it to. Shared machine structures (memory,
// caches, page table, backend metadata) synchronise internally; isolation
// of application data remains the program's job via Lock, exactly as in
// the paper. Machine-level calls (Stats, Drain, Crash, Recover, Restore)
// must not overlap a Run. Per-core results are deterministic for fixed
// per-core inputs; with Config.TimeWindow == 0 cross-core timing depends
// on the host schedule (aggregate statistics are order-independent sums of
// per-core shards), while Config.TimeWindow > 0 runs the deterministic
// bounded-lag window scheduler and the whole run — Stats included — is
// byte-identical across same-seed executions.
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
// report (Config.TimeWindow; see Machine.WindowStats).
type WindowStats = machine.WindowStats

// Cycles is simulated time in core clock cycles (3.7 GHz by default).
type Cycles = engine.Cycles

// Interleave selects the address→channel mapping of the multi-channel
// memory model (Config.Channels).
type Interleave = memsim.Interleave

// Interleaving policies: cacheline-granular (consecutive 64-byte lines
// rotate channels) and page-granular (a 4 KiB page lives on one channel).
const (
	InterleaveLine = memsim.InterleaveLine
	InterleavePage = memsim.InterleavePage
)

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
// falls back to the paper's Table 2 parameters.
type Config struct {
	Backend Backend
	Cores   int // default 1

	// Memory latencies in nanoseconds (Table 2: DRAM 50/50, NVRAM 50/200).
	NVRAMReadNS  float64
	NVRAMWriteNS float64
	DRAMNS       float64

	// Multi-channel memory model (beyond the paper's single-channel
	// Table 2). Channels splits memory into independent interleaved
	// channels, each with its own banks and data-bus timeline, so
	// concurrent cores only contend on memory they genuinely share.
	Channels   int        // independent memory channels (default 1, max 16)
	Interleave Interleave // address→channel policy (default InterleaveLine)

	// Capacities.
	NVRAMMB      int // simulated NVRAM size (default 128)
	DRAMMB       int // simulated DRAM size (default 32)
	MaxHeapPages int // persistent heap limit in 4 KiB pages
	JournalKB    int // SSP metadata journal region, per shard
	LogKB        int // per-core undo/redo log region
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
	SSPCacheEntries int    // transient SSP cache capacity (default N·T+O)
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
	// TimeWindow, in cycles, enables the deterministic bounded-lag window
	// scheduler for Machine.Run: cores advance in lockstep windows of this
	// many simulated cycles and execution within a window is serialised in
	// min-(clock, core-index) order, so all shared-hardware arbitration —
	// memory bank and bus occupancy, row-buffer transitions, cache
	// ownership transfers, lock hand-off, epoch hardening — is
	// resolved in simulated-time order and two runs with the same seed and
	// core count produce byte-identical Stats (see Machine.WindowStats for
	// the scheduler's own counters). The host-parallelism of Run is
	// forfeited — a windowed run uses one host core — while simulated
	// speedup curves are unaffected; 4096 is a good default window.
	// 0 (default) is the free-running concurrent mode, bit-for-bit.
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
	// WearRotateWrites, when positive, enables SoftWear-style software
	// wear-leveling (beyond the paper): at page consolidation, a physical
	// frame whose cumulative NVRAM write count has reached this threshold
	// is retired — the page's committed lines are copied into a cold frame
	// from the allocator, the frame flip rides the same journaled
	// consolidation record, and the hot frame returns to the pool
	// (Stats.WearRotations, Stats.FrameWriteMax). 0 (default) disables
	// rotation, bit-for-bit.
	WearRotateWrites int
	// LazyConsolidation defers consolidation until slot pressure demands
	// it (the paper's §3.4 future-work variant).
	LazyConsolidation bool
	// FlipViaShootdown replaces the flip-current-bit broadcast with TLB
	// shootdowns (§4.3's simpler-hardware alternative).
	FlipViaShootdown bool

	// REDO-LOG knobs.
	RedoQueueLines int // post-commit write-back queue bound (per engine)
	// RedoWriteBackEngines is the number of background write-back engines
	// (default 1 = DHTM's single engine per memory controller, which pins
	// REDO-LOG's parallel speedup near 1x; per-core engines ablate that
	// serialisation — `sspbench -exp ablate`).
	RedoWriteBackEngines int

	// ConsolEpochCommits is the concurrent-mode consolidation epoch length:
	// during Machine.Run, SSP batches page consolidation and drains the
	// batch every N commits instead of consolidating inline at each commit
	// (which would serialise all cores on the metadata journal). Serial
	// execution ignores it. Default 32.
	ConsolEpochCommits int
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
	mc.Mem.Interleave = c.Interleave
	if c.NVRAMReadNS > 0 {
		mc.Mem.NVRAMRead = c.NVRAMReadNS
	}
	if c.NVRAMWriteNS > 0 {
		mc.Mem.NVRAMWrite = c.NVRAMWriteNS
	}
	if c.DRAMNS > 0 {
		mc.Mem.DRAMRead = c.DRAMNS
		mc.Mem.DRAMWrite = c.DRAMNS
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
	if c.LogKB > 0 {
		mc.Layout.LogBytes = c.LogKB << 10
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
	if c.SSPCacheEntries > 0 {
		mc.SSP.Entries = c.SSPCacheEntries
		if mc.Layout.SSPSlots < c.SSPCacheEntries {
			mc.Layout.SSPSlots = c.SSPCacheEntries
		}
	}
	if c.SSPCacheLatency > 0 {
		mc.SSP.CacheHitLat = c.SSPCacheLatency
	}
	if c.SSPResident > 0 {
		mc.SSP.ResidentEntries = c.SSPResident
	} else if c.SSPCacheEntries > 0 {
		mc.SSP.ResidentEntries = c.SSPCacheEntries
	}
	if c.SubPageLines > 0 {
		mc.SSP.SubPageLines = c.SubPageLines
	}
	if c.WSBEntries > 0 {
		mc.SSP.WSBEntries = c.WSBEntries
	}
	mc.DRAMCacheFrames = c.DRAMCacheFrames
	if c.WearRotateWrites > 0 {
		mc.SSP.WearRotateWrites = uint64(c.WearRotateWrites)
	}
	mc.SSP.LazyConsolidation = c.LazyConsolidation
	mc.SSP.FlipViaShootdown = c.FlipViaShootdown
	if c.TimeWindow > 0 {
		mc.TimeWindow = engine.Cycles(c.TimeWindow)
	}
	if c.DurabilityEpoch > 0 {
		mc.SSP.DurabilityEpoch = engine.Cycles(c.DurabilityEpoch)
	}
	if c.RedoQueueLines > 0 {
		mc.Redo.QueueLines = c.RedoQueueLines
	}
	if c.RedoWriteBackEngines > 0 {
		mc.Redo.WriteBackEngines = c.RedoWriteBackEngines
	}
	if c.ConsolEpochCommits > 0 {
		mc.SSP.EpochCommits = c.ConsolEpochCommits
	}
	return mc
}

// Machine is one simulated system.
type Machine struct {
	*machine.Machine
	cfg Config
}

// Validate checks every Config field against its legal range. New and
// Restore call it; the zero value of any field is always legal (it selects
// the default).
func (c Config) Validate() error {
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
	if c.DRAMNS < 0 {
		return fmt.Errorf("ssp: DRAMNS is %v, want >= 0 (0 selects the Table 2 default)", c.DRAMNS)
	}
	if c.SubPageLines != 0 && c.SubPageLines != 1 && c.SubPageLines != 4 {
		return fmt.Errorf("ssp: SubPageLines is %d, want 1 or 4 (0 selects the default, 1)", c.SubPageLines)
	}
	if c.TimeWindow < 0 {
		return fmt.Errorf("ssp: TimeWindow is %d cycles, want >= 0 (0 selects free-running concurrent mode)", c.TimeWindow)
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
	if c.WearRotateWrites < 0 {
		return fmt.Errorf("ssp: WearRotateWrites is %d, want >= 0 (0 disables wear rotation)", c.WearRotateWrites)
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
// recovery. The configuration must match the image's.
func Restore(cfg Config, image []byte) (*Machine, error) {
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

// Run executes fn once per core, each on its own goroutine, and returns
// when all of them finish — the machine's concurrent mode. See the package
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
