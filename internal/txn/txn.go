// Package txn defines the contract between the simulated machine and the
// failure-atomicity mechanisms it evaluates: the shared hardware environment
// (Env) and the Backend interface implemented by SSP (internal/core) and the
// two hardware-logging baselines (internal/logging).
//
// The programming model mirrors the paper's ISA extension (§3.1):
// Begin/Commit bracket a failure-atomic section (ATOMIC_BEGIN/ATOMIC_END,
// full memory barriers) and Store is an ATOMIC_STORE whose effects persist
// all-or-nothing. Isolation is the application's job (locks), exactly as in
// the paper.
package txn

import (
	"repro/internal/cachesim"
	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/tlbsim"
	"repro/internal/vm"
)

// Env bundles the simulated hardware every backend drives.
type Env struct {
	Mem    *memsim.Memory
	Caches *cachesim.Hierarchy
	TLBs   []*tlbsim.TLB
	PT     *vm.PageTable
	Frames *vm.FrameAlloc
	Layout vm.Layout
	Stats  *stats.Stats

	// PerCore optionally holds one private counter shard per core:
	// counters updated on a core's execution path (commits, log records,
	// flips) go to the core's shard via StatsFor, so per-core reporting can
	// tell cores apart; counters of shared structures stay on Stats.
	// Aggregation is order-independent (see stats.Sharded). Nil in
	// single-core setups: StatsFor then falls back to Stats.
	PerCore []*stats.Stats

	// BarrierCycles is the cost of a full memory barrier
	// (ATOMIC_BEGIN/ATOMIC_END act as full barriers, §3.1).
	BarrierCycles engine.Cycles
	// STLBCycles is the extra latency of an L2 STLB hit.
	STLBCycles engine.Cycles
}

// Cores returns the number of simulated cores.
func (e *Env) Cores() int { return len(e.TLBs) }

// StatsFor returns the counter shard for core's execution path.
func (e *Env) StatsFor(core int) *stats.Stats {
	if e.PerCore != nil {
		return e.PerCore[core]
	}
	return e.Stats
}

// Translate resolves va's page through core's TLB, charging a page-table
// walk on a miss, and returns the page's frame base (PPN0) plus completion
// time. It panics on unmapped addresses — the heap maps pages at allocation.
func (e *Env) Translate(core int, va uint64, at engine.Cycles) (memsim.PAddr, engine.Cycles) {
	vpn := vm.VPNOf(va)
	if ppn, level, hit := e.TLBs[core].Lookup(tlbsim.VPN(vpn)); hit {
		if level == 2 {
			at += e.STLBCycles
		}
		return ppn, at
	}
	ppn, done, ok := e.PT.Walk(vpn, at)
	if !ok {
		panic("txn: access to unmapped persistent page")
	}
	e.TLBs[core].Insert(tlbsim.VPN(vpn), ppn)
	return ppn, done
}

// Backend is a failure-atomicity mechanism under evaluation. All timing
// methods take the core's current clock and return its new value.
//
// Threading contract: implementations need no locking. Inside
// Machine.Run each core's methods are invoked from that core's own
// goroutine, but the window scheduler lets one core execute at a time and
// its grant orders each call after the previous core's, so no two calls
// ever overlap.
type Backend interface {
	// Name identifies the design ("SSP", "UNDO-LOG", "REDO-LOG").
	Name() string

	// Begin opens a failure-atomic section on core.
	Begin(core int, at engine.Cycles) engine.Cycles

	// Store performs an ATOMIC_STORE of data (within one cache line) at
	// virtual address va inside the open section. The backend copies what
	// it needs: the caller reuses data's bytes after the call.
	Store(core int, va uint64, data []byte, at engine.Cycles) engine.Cycles

	// Load reads len(buf) bytes at va through the mechanism's current
	// mapping; legal inside or outside a section.
	Load(core int, va uint64, buf []byte, at engine.Cycles) engine.Cycles

	// Commit makes the open section durable; on return the section's
	// writes survive any crash.
	Commit(core int, at engine.Cycles) engine.Cycles

	// Abort rolls the open section back.
	Abort(core int, at engine.Cycles) engine.Cycles

	// StoreNT is a plain (non-failure-atomic) persistent store outside any
	// section.
	StoreNT(core int, va uint64, data []byte, at engine.Cycles) engine.Cycles

	// Crash discards the backend's volatile state (power failure). The
	// caller drops caches and TLBs.
	Crash()

	// Recover rebuilds volatile state from NVRAM and performs the
	// mechanism's crash recovery (rollback or replay).
	Recover() error

	// Drain completes background work (consolidation queues, post-commit
	// write-backs) — an orderly shutdown, used before comparing durable
	// state in tests and at the end of measurement runs.
	Drain(at engine.Cycles) engine.Cycles
}

// GlobalBackend is implemented by backends with a distributed-commit
// protocol for cross-shard (multi-arena) transactions. BeginGlobal opens a
// failure-atomic section exactly like Begin, but marks it as one whose
// write set may span structures owned by multiple metadata shards; the
// backend's Commit then guarantees all-or-nothing atomicity across every
// shard the section touched (for SSP: two-phase prepare/end records over
// the participant journal shards). Drivers fall back to plain Begin on
// backends without the interface — the logging designs are per-core-log
// atomic for any write set, so the distinction only exists where commit
// metadata is sharded.
type GlobalBackend interface {
	BeginGlobal(core int, at engine.Cycles) engine.Cycles
}

// RelaxedBackend is implemented by backends offering an epoch-batched
// relaxed-durability commit mode alongside the synchronous Commit.
//
// CommitRelaxed closes the open section exactly like Commit — on return
// the section is ACKNOWLEDGED and its writes are visible — but its
// durability point is deferred: the backend guarantees the section becomes
// durable within its configured epoch bound (for SSP:
// Config.DurabilityEpoch cycles, or earlier at a Sync, a Drain, or any
// synchronous flush of the section's metadata shard), and that a crash
// before that point loses relaxed sections ATOMICALLY — each one entirely
// present or entirely absent afterwards, never torn, and never reordered
// against a later durable section on the same metadata stream.
//
// Sync is the durability upgrade barrier: on return every section
// acknowledged before the call — relaxed or not — is durable. With the
// relaxed mode disabled (DurabilityEpoch = 0) CommitRelaxed must be
// bit-for-bit Commit and Sync free.
//
// Drivers fall back to Commit (and a no-op Sync) on backends without the
// interface — the logging baselines persist at commit unconditionally.
type RelaxedBackend interface {
	CommitRelaxed(core int, at engine.Cycles) engine.Cycles
	Sync(core int, at engine.Cycles) engine.Cycles
}

// IdleHardener is the optional idle-path extension of RelaxedBackend. The
// relaxed epoch age bound is enforced by committers: the commit whose
// timestamp crosses the bound pays the harden. A shard whose cores all go
// quiet therefore holds its last acknowledged-but-volatile epoch open
// until the next Sync or Drain — unbounded in host time. HardenIdle closes
// that gap: it hardens the calling core's own metadata shard's open epoch,
// if any, and reports whether a harden ran. Serving loops call it when a
// core has been idle long enough that no imminent commit will pick up the
// bill (the caller judges "long enough" in host time; simulated time does
// not advance on an idle core). A no-op on backends without the relaxed
// mode and on shards with nothing unsealed.
type IdleHardener interface {
	HardenIdle(core int, at engine.Cycles) (engine.Cycles, bool)
}

// ParallelAware is implemented by backends that schedule background work
// differently inside goroutine-per-core execution (machine.Machine.Run).
// SetParallel(true) is called before the core goroutines start,
// SetParallel(false) after they join; both calls happen with no simulated
// work in flight.
//
// While parallel mode is on, a backend may reorganise how it schedules
// background work (e.g. SSP batches commit-time page consolidation into
// epochs instead of running it inline) as long as crash consistency and
// the aggregate counter totals remain correct.
type ParallelAware interface {
	SetParallel(on bool)
}
