// Package txn defines the contract between the simulated machine and the
// failure-atomicity mechanisms it evaluates: the shared hardware environment
// (Env) and the one Backend interface implemented by SSP (internal/core) and
// the two hardware-logging baselines (internal/logging).
//
// The programming model mirrors the paper's ISA extension (§3.1):
// Begin/Commit bracket a failure-atomic section (ATOMIC_BEGIN/ATOMIC_END,
// full memory barriers) and Store is an ATOMIC_STORE whose effects persist
// all-or-nothing. Isolation is the application's job (locks), exactly as in
// the paper.
//
// SSP's extensions beyond that contract — cross-shard sections
// (BeginGlobal), relaxed durability (CommitRelaxed, Sync, HardenIdle) and
// parallel-mode consolidation batching (SetParallel) — have one
// implementer, so they are methods of *core.SSP that internal/machine calls
// directly rather than interfaces here. The logging designs need none of
// them: their per-core logs are atomic for any write set and persist at
// every commit.
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
