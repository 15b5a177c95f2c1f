// Package machine assembles the full simulated system of Table 2 — cores,
// TLBs, cache hierarchy, hybrid memory, page table — around one
// failure-atomicity backend (SSP or a logging baseline), and exposes the
// transactional programming model to workloads.
//
// Execution model: outside Machine.Run the simulator is single-goroutine
// and deterministic. Each simulated core owns a clock; every operation
// advances it by the modelled latency. Serial multi-client workloads
// interleave transactions by always running the client whose clock is
// lowest (see internal/workload), while memory-bank and lock timelines are
// shared across cores so contention is modelled.
//
// Machine.Run adds a concurrent mode: one goroutine per core, with shared
// structures (memory, caches, page table, backend metadata) synchronising
// internally and per-core state (TLBs, clocks, stats shards, write-set
// characterisation) sharded so cores never contend on it. See Run for the
// contract.
package machine

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/buffercache"
	"repro/internal/cachesim"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/logging"
	"repro/internal/memsim"
	"repro/internal/pheap"
	"repro/internal/stats"
	"repro/internal/tlbsim"
	"repro/internal/txn"
	"repro/internal/vm"
)

// BackendKind selects the failure-atomicity design.
type BackendKind int

// Backends under evaluation (§5.1).
const (
	SSP BackendKind = iota
	UndoLog
	RedoLog
)

// String returns the paper's name for the design.
func (b BackendKind) String() string {
	switch b {
	case SSP:
		return "SSP"
	case UndoLog:
		return "UNDO-LOG"
	case RedoLog:
		return "REDO-LOG"
	default:
		return fmt.Sprintf("BackendKind(%d)", int(b))
	}
}

// Backends lists all designs in report order.
func Backends() []BackendKind { return []BackendKind{UndoLog, RedoLog, SSP} }

// Config describes a whole machine. DefaultConfig returns Table 2.
type Config struct {
	Backend BackendKind
	Cores   int

	Mem         memsim.Config
	Cache       cachesim.Config
	TLBEntries  int           // L1 DTLB entries per core (Table 2: 64)
	STLBEntries int           // L2 STLB entries per core (§4.3: 1024; 0 disables)
	STLBLat     engine.Cycles // extra latency of an STLB hit
	Layout      vm.LayoutConfig
	SSP         core.Config
	Redo        logging.RedoConfig

	// DRAMCacheFrames interposes a DRAM buffer tier of this many 4 KiB
	// frames (internal/buffercache) between the cache hierarchy and the
	// NVRAM data frame pool. 0 (default) couples the caches directly to
	// memory — the paper's bare-NVRAM model, bit-for-bit.
	DRAMCacheFrames int

	// BarrierCycles is the cost of ATOMIC_BEGIN/ATOMIC_END full barriers.
	BarrierCycles engine.Cycles
	// OpCycles is the per-operation front-end cost charged by Compute and
	// each memory instruction.
	OpCycles engine.Cycles
	// LockCycles is the hand-off cost of the simulated lock.
	LockCycles engine.Cycles

	// TimeWindow, in cycles, enables the deterministic bounded-lag window
	// scheduler for Run: cores advance in lockstep windows of this many
	// simulated cycles, execution within a window is serialised in
	// min-(clock, core-index) order, and two runs with the same inputs
	// produce byte-identical Stats (see winsched.go). 0 (default) is the
	// free-running concurrent mode, bit-for-bit the historical behaviour.
	TimeWindow engine.Cycles
}

// DefaultConfig returns the paper's system parameters for the given design
// and core count.
func DefaultConfig(backend BackendKind, cores int) Config {
	if cores <= 0 {
		cores = 1
	}
	cfg := Config{
		Backend:       backend,
		Cores:         cores,
		Mem:           memsim.DefaultConfig(),
		Cache:         cachesim.DefaultConfig(cores),
		TLBEntries:    64,
		STLBEntries:   1024,
		STLBLat:       7,
		Layout:        vm.DefaultLayoutConfig(cores),
		SSP:           core.DefaultConfig(),
		Redo:          logging.DefaultRedoConfig(),
		BarrierCycles: 30,
		OpCycles:      2,
		LockCycles:    40,
	}
	// Size the SSP cache as N·T+O (§4.1.2): every TLB-resident page needs
	// an entry, plus overprovisioning for pages under consolidation.
	cfg.SSP.Entries = cores*(cfg.TLBEntries+cfg.STLBEntries) + 64
	cfg.Layout.SSPSlots = cfg.SSP.Entries
	return cfg
}

// Machine is one simulated system.
//
// Execution modes: by default every call runs on the caller's goroutine and
// the machine is fully deterministic (the historical single-goroutine
// model). Run switches to concurrent mode — one goroutine per Core — for
// its duration; see Run for the exact contract.
type Machine struct {
	cfg    Config
	shards *stats.Sharded
	mem    *memsim.Memory
	bcache *buffercache.Cache // nil unless Config.DRAMCacheFrames > 0
	caches *cachesim.Hierarchy
	tlbs   []*tlbsim.TLB
	pt     *vm.PageTable
	frames *vm.FrameAlloc
	layout vm.Layout
	env    *txn.Env

	backend txn.Backend
	heap    *pheap.Heap

	clocks []engine.Cycles
	cores  []*Core
	ws     []WriteSetStats // per-core shards; aggregated by WriteSet

	// parallel is true while Run's core goroutines execute. It is written
	// only while the machine is quiescent (before the goroutines start and
	// after they join), so reads from the core goroutines are race-free.
	parallel bool
	mapMu    sync.Mutex // serialises ensureMapped's check-then-map

	// sched is the deterministic window scheduler, non-nil exactly when
	// Config.TimeWindow > 0. It is armed for the duration of each Run.
	sched *winSched
}

// WriteSetStats accumulates the per-transaction write-set characterisation
// the paper's Table 3 reports: cache lines and pages modified per durable
// transaction.
type WriteSetStats struct {
	Txns       uint64
	TotalLines uint64
	TotalPages uint64
	MaxPages   int
	MaxLines   int
}

func (w *WriteSetStats) record(lines, pages int) {
	w.Txns++
	w.TotalLines += uint64(lines)
	w.TotalPages += uint64(pages)
	if pages > w.MaxPages {
		w.MaxPages = pages
	}
	if lines > w.MaxLines {
		w.MaxLines = lines
	}
}

// AvgLines returns the mean write-set size in cache lines.
func (w *WriteSetStats) AvgLines() float64 {
	if w.Txns == 0 {
		return 0
	}
	return float64(w.TotalLines) / float64(w.Txns)
}

// AvgPages returns the mean write-set size in pages.
func (w *WriteSetStats) AvgPages() float64 {
	if w.Txns == 0 {
		return 0
	}
	return float64(w.TotalPages) / float64(w.Txns)
}

// New builds and formats a fresh machine.
func New(cfg Config) *Machine {
	m, err := build(cfg, nil)
	if err != nil {
		// Only a mismatched restore image can fail the build, and New never
		// passes one.
		panic(err)
	}
	m.format()
	return m
}

// Restore boots a machine from a previous machine's durable NVRAM image
// (post-crash) and runs the backend's recovery.
func Restore(cfg Config, image []byte) (*Machine, error) {
	m, err := build(cfg, image)
	if err != nil {
		return nil, err
	}
	if !vm.IsFormatted(m.mem, m.layout) {
		return nil, fmt.Errorf("machine: image is not a formatted persistent heap")
	}
	m.pt.Rebuild()
	if cfg.Backend != SSP {
		// The logging designs keep no frame metadata beyond the page
		// table; SSP's Recover rebuilds the allocator itself.
		m.frames.Reset()
		for _, e := range m.pt.Mapped() {
			m.frames.Reserve(e.Frame)
		}
	}
	if err := m.backend.Recover(); err != nil {
		return nil, err
	}
	return m, nil
}

func build(cfg Config, image []byte) (*Machine, error) {
	cfg.Cache.Cores = cfg.Cores
	cfg.Layout.Cores = cfg.Cores
	shards := stats.NewSharded(cfg.Cores)
	// Counter routing: the cache hierarchy writes the shared shard under its
	// interconnect lock; each memory channel writes its own channel shard
	// under that channel's timing lock; each TLB and each core's backend
	// execution path write that core's shard. Aggregation is an
	// order-independent sum.
	shared := shards.Shared()
	var mem *memsim.Memory
	if image != nil {
		var err error
		mem, err = memsim.NewFromImage(cfg.Mem, shared, image)
		if err != nil {
			return nil, err
		}
	} else {
		mem = memsim.New(cfg.Mem, shared)
	}
	mem.AttachChannelStats(shards.ChannelShards(mem.Channels()))
	layout := vm.NewLayout(cfg.Mem, cfg.Layout)
	// The memory tier below the caches: bare NVRAM, or a DRAM buffer cache
	// over the data frame pool when configured.
	below := cachesim.Wrap(mem)
	var bcache *buffercache.Cache
	if cfg.DRAMCacheFrames > 0 {
		bcache = buffercache.New(buffercache.Config{
			Frames: cfg.DRAMCacheFrames,
			Lo:     layout.FramePoolBase,
			Hi:     layout.FramePoolEnd,
		}, mem, shards)
		below = bcache
	}
	m := &Machine{
		cfg:    cfg,
		shards: shards,
		mem:    mem,
		bcache: bcache,
		caches: cachesim.NewWithMem(cfg.Cache, below, shared),
		pt:     vm.NewPageTable(mem, layout),
		frames: vm.NewFrameAlloc(layout),
		layout: layout,
		clocks: make([]engine.Cycles, cfg.Cores),
		ws:     make([]WriteSetStats, cfg.Cores),
	}
	perCore := make([]*stats.Stats, cfg.Cores)
	for c := 0; c < cfg.Cores; c++ {
		perCore[c] = shards.Shard(c)
		m.tlbs = append(m.tlbs, tlbsim.NewTwoLevel(cfg.TLBEntries, cfg.STLBEntries, perCore[c]))
	}
	m.env = &txn.Env{
		Mem:           mem,
		Caches:        m.caches,
		TLBs:          m.tlbs,
		PT:            m.pt,
		Frames:        m.frames,
		Layout:        layout,
		Stats:         shared,
		PerCore:       perCore,
		BarrierCycles: cfg.BarrierCycles,
		STLBCycles:    cfg.STLBLat,
	}
	if cfg.TimeWindow > 0 {
		m.sched = newWinSched(m, cfg.TimeWindow)
	}
	switch cfg.Backend {
	case SSP:
		m.backend = core.NewSSP(m.env, cfg.SSP, image == nil)
	case UndoLog:
		m.backend = logging.NewUndo(m.env)
	case RedoLog:
		m.backend = logging.NewRedo(m.env, cfg.Redo)
	default:
		panic("machine: unknown backend")
	}
	m.heap = &pheap.Heap{EnsureMapped: func(_ pheap.Tx, first, last int) { m.ensureMapped(first, last) }}
	for c := 0; c < cfg.Cores; c++ {
		m.cores = append(m.cores, &Core{m: m, id: c, wsLines: map[uint64]struct{}{}, wsPages: map[uint64]struct{}{}})
	}
	return m, nil
}

// format initialises the persistent image: superblock, heap page zero, and
// allocator metadata (via a bootstrap transaction on core 0).
func (m *Machine) format() {
	vm.Format(m.mem, m.layout)
	m.ensureMapped(0, 0)
	c := m.Core(0)
	c.Begin()
	m.heap.Format(c, m.layout.Cfg.MaxHeapPages)
	c.Commit()
}

// ensureMapped maps heap VPNs [first,last] to fresh frames with durable
// PTE writes; already-mapped pages are untouched. mapMu makes the
// check-then-map atomic; in concurrent mode the PTE write is timed from
// cycle zero instead of core 0's (racing) clock — the bank timeline orders
// it after in-flight traffic either way.
func (m *Machine) ensureMapped(first, last int) {
	m.mapMu.Lock()
	defer m.mapMu.Unlock()
	var at engine.Cycles
	if !m.parallel {
		at = m.clocks[0]
	}
	for vpn := first; vpn <= last; vpn++ {
		if _, ok := m.pt.Lookup(vpn); ok {
			continue
		}
		frame := m.frames.Alloc()
		m.pt.Set(vpn, frame, at)
	}
}

// Core returns the handle for simulated core i.
func (m *Machine) Core(i int) *Core { return m.cores[i] }

// Cores returns the core count.
func (m *Machine) Cores() int { return m.cfg.Cores }

// Config returns the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Stats returns the machine's counters, aggregated across the per-core
// shards at call time. Each call returns a fresh snapshot, so pointers
// taken before and after work compare meaningfully. Not safe during Run;
// quiesce first.
func (m *Machine) Stats() *stats.Stats {
	agg := m.shards.Aggregate()
	m.fillWear(&agg)
	return &agg
}

// fillWear snapshots memsim's per-page NVRAM write counters over the data
// frame pool into st's wear fields (histogram, max, total). The counters
// live in memsim rather than a shard, so they are folded in at snapshot
// time; shards carry zeros for these fields.
func (m *Machine) fillWear(st *stats.Stats) {
	for _, w := range m.mem.WornPages(m.layout.FramePoolBase, m.layout.Frames) {
		st.FramesWritten++
		st.FrameWriteTotal += w
		if w > st.FrameWriteMax {
			st.FrameWriteMax = w
		}
		b := bits.Len64(w) - 1
		if b >= len(st.FrameWrites) {
			b = len(st.FrameWrites) - 1
		}
		st.FrameWrites[b]++
	}
}

// CoreStats returns core i's private counter shard (per-core reporting).
// The shard covers the core's execution path — commits, log records, TLB
// behaviour — while shared-structure counters (memory traffic, cache hits)
// live in the shared shard and are only meaningful in aggregate.
func (m *Machine) CoreStats(i int) stats.Stats { return m.shards.PerCore(i) }

// WriteSet returns the Table 3 write-set characterisation, aggregated
// across cores at call time (snapshot semantics, like Stats).
func (m *Machine) WriteSet() *WriteSetStats {
	var agg WriteSetStats
	for i := range m.ws {
		w := &m.ws[i]
		agg.Txns += w.Txns
		agg.TotalLines += w.TotalLines
		agg.TotalPages += w.TotalPages
		if w.MaxPages > agg.MaxPages {
			agg.MaxPages = w.MaxPages
		}
		if w.MaxLines > agg.MaxLines {
			agg.MaxLines = w.MaxLines
		}
	}
	return &agg
}

// ResetStats zeroes all counters (after warm-up, before measurement). Core
// clocks and durable state are untouched.
func (m *Machine) ResetStats() {
	m.shards.Reset()
	m.mem.ResetWear()
	for i := range m.ws {
		m.ws[i] = WriteSetStats{}
	}
}

// Backend exposes the active failure-atomicity mechanism.
func (m *Machine) Backend() txn.Backend { return m.backend }

// Heap returns the persistent heap allocator.
func (m *Machine) Heap() *pheap.Heap { return m.heap }

// Mem exposes the memory system (tests, crash tooling).
func (m *Machine) Mem() *memsim.Memory { return m.mem }

// Channels returns the memory system's effective channel count.
func (m *Machine) Channels() int { return m.mem.Channels() }

// ChannelUtilization converts the aggregated per-channel bus-occupancy
// counters into utilization fractions of the given elapsed window (one entry
// per channel), clamped to [0,1] — the counters charge every transfer, so a
// degenerate window (a straggler core admitted past the occupancy wheel's
// horizon) could otherwise nudge past 1. Quiescent-only, like Stats.
func (m *Machine) ChannelUtilization(elapsed engine.Cycles) []float64 {
	st := m.shards.Aggregate()
	out := make([]float64, m.mem.Channels())
	if elapsed <= 0 {
		return out
	}
	for i := range out {
		out[i] = float64(st.ChannelBusyCycles[i]) / float64(elapsed)
		if out[i] > 1 {
			out[i] = 1
		}
	}
	return out
}

// JournalShardPressure re-exports the SSP backend's per-shard journal
// state (fill, records, checkpoints).
type JournalShardPressure = core.JournalShardPressure

// JournalPressure returns the SSP metadata journal's per-shard state, one
// entry per configured shard (nil for the logging backends, which have no
// metadata journal). Quiescent-only, like Stats.
func (m *Machine) JournalPressure() []JournalShardPressure {
	if s, ok := m.backend.(*core.SSP); ok {
		return s.JournalPressure()
	}
	return nil
}

// DebugValidateCaches runs the cache hierarchy's coherence invariant check
// and returns the first violation, or "" (test helper).
func (m *Machine) DebugValidateCaches() string { return m.caches.DebugValidate() }

// MaxClock returns the latest core clock — the run's wall-clock in cycles.
func (m *Machine) MaxClock() engine.Cycles {
	var mx engine.Cycles
	for _, c := range m.clocks {
		if c > mx {
			mx = c
		}
	}
	return mx
}

// Run executes fn once per core, each invocation on its own goroutine, and
// returns when every invocation has finished. This is the machine's
// concurrent mode: the cores genuinely execute in parallel on the host.
//
// Contract:
//
//   - fn(core) owns that Core exclusively: Core methods (Begin, Store64,
//     Commit, Acquire, ...) are safe exactly because only core's goroutine
//     calls them. Do not share a Core across goroutines.
//   - Shared simulated structures (memory, caches, page table, the
//     backend's metadata) synchronise internally; application-level
//     isolation remains the program's job via Lock, as in the paper.
//   - Machine-level operations (Stats, Drain, Crash, Recover, ResetStats,
//     MaxClock) must not be called until Run returns.
//   - Per-core work is deterministic given fixed per-core inputs. With
//     Config.TimeWindow == 0 (free-running mode), cross-core timing (bank
//     contention, lock hand-off order) depends on the host schedule, and
//     aggregate counters are order-independent sums. With TimeWindow > 0
//     the window scheduler serialises cross-core interleaving in simulated
//     time (see winsched.go) and the ENTIRE run — Stats included — is
//     deterministic, unless a core blocks on a host-side event via
//     BlockExternal (the server path).
//
// Serial execution outside Run is unchanged and remains bit-for-bit
// deterministic.
func (m *Machine) Run(fn func(c *Core)) {
	if m.parallel {
		panic("machine: nested Run")
	}
	if m.sched != nil {
		m.sched.start()
	}
	m.setParallel(true)
	var wg sync.WaitGroup
	for _, c := range m.cores {
		wg.Add(1)
		go func(c *Core) {
			defer wg.Done()
			if m.sched != nil {
				m.sched.enter(c.id)
				defer m.sched.exit(c.id)
			}
			fn(c)
		}(c)
	}
	wg.Wait()
	m.setParallel(false)
	if m.sched != nil {
		m.sched.stop()
	}
}

// WindowStats returns the window scheduler's activity during the most
// recent Run — zero-valued when Config.TimeWindow == 0. Quiescent-only,
// like Stats. The counters are deterministic; HostWait is host time (the
// barrier's wall-clock cost) and is reported here, outside Stats, so
// byte-identity of Stats across same-seed runs holds exactly.
func (m *Machine) WindowStats() WindowStats {
	if m.sched == nil {
		return WindowStats{}
	}
	return m.sched.snapshot()
}

// setParallel flips concurrent mode on the machine and, when supported, the
// backend. Called only while quiescent.
func (m *Machine) setParallel(on bool) {
	m.parallel = on
	if pa, ok := m.backend.(txn.ParallelAware); ok {
		pa.SetParallel(on)
	}
}

// Drain completes all background work on every core's behalf.
func (m *Machine) Drain() {
	t := m.backend.Drain(m.MaxClock())
	for i := range m.clocks {
		if m.clocks[i] < t {
			m.clocks[i] = t
		}
	}
}

// Crash simulates a power failure: all volatile state (caches, TLBs,
// backend buffers) vanishes; the durable NVRAM image survives. The machine
// itself becomes unusable; continue via Restore(cfg, image) or in place via
// Recover.
func (m *Machine) Crash() []byte {
	m.mem.PowerOff()
	m.dropVolatile()
	return m.mem.NVRAMImage()
}

// dropVolatile clears every volatile structure.
func (m *Machine) dropVolatile() {
	m.caches.DropAll()
	if m.bcache != nil {
		m.bcache.DropAll()
	}
	for _, t := range m.tlbs {
		t.Drop()
	}
	m.backend.Crash()
	for i := range m.clocks {
		m.clocks[i] = 0
	}
	for _, c := range m.cores {
		c.inTxn = false
	}
}

// Recover performs in-place crash recovery after Crash (or after a write
// trap fired): volatile state is dropped, power restored, and the backend's
// recovery runs against the surviving image.
func (m *Machine) Recover() error {
	m.dropVolatile()
	m.mem.PowerOn()
	m.mem.ResetTiming()
	m.pt.Rebuild()
	if m.cfg.Backend != SSP {
		// The logging designs keep no frame metadata beyond the page
		// table; SSP's Recover rebuilds the allocator itself.
		m.frames.Reset()
		for _, e := range m.pt.Mapped() {
			m.frames.Reserve(e.Frame)
		}
	}
	return m.backend.Recover()
}

// Lock is a simulated mutex: acquisition serialises critical sections in
// simulated time without spinning. In free-running
// concurrent mode the simulated hand-off is backed by a real mutex held
// between Acquire and Release, so host-level mutual exclusion matches the
// simulated one. In windowed mode (Config.TimeWindow > 0) the scheduler
// manages the queue instead and hands the lock to the waiting core with
// the lowest (clock, core-index) pair — a deterministic grant order, where
// a host mutex would wake waiters in host order.
type Lock struct {
	mu     sync.Mutex
	freeAt engine.Cycles

	// Windowed-mode state, guarded by the scheduler's mutex: the holding
	// core (-1 free) and the parked waiters.
	holder int
	q      []int
}

// NewLock returns an unlocked lock.
func (m *Machine) NewLock() *Lock { return &Lock{holder: -1} }
