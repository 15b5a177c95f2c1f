package workload

import (
	"time"

	"repro/ssp"
)

// This file is the concurrent driver: instead of the serial min-clock
// interleaver in Run, RunParallel executes each client on its own goroutine
// via ssp.Machine.Run, with all shared state sharded per core — each client
// owns its data structures, its key space, its lock and its allocation
// arena, so cores couple only through the machine's shared hardware
// (memory banks, the shared L3, the backend's metadata journal), which is
// exactly the coupling the paper's multi-core runs model.

// CoreResult is one core's slice of a parallel run.
type CoreResult struct {
	Core    int
	Txns    uint64     // transactions this core issued
	Commits uint64     // committed durable transactions (from its stats shard)
	Cycles  ssp.Cycles // the core's own simulated elapsed time
	TPS     float64    // this core's committed transactions per simulated second

	// BarrierWait is the core's commit-barrier wait: cycles its commits
	// spent blocked on their data-flush fences (Stats.CommitBarrierWait).
	BarrierWait uint64
}

// ParallelResult is a parallel run's measurements: the aggregate in Result
// (order-independent sums; Cycles is the slowest core's elapsed time) plus
// the per-core breakdown and the host wall-clock of the measured window.
type ParallelResult struct {
	Result
	PerCore []CoreResult
	Wall    time.Duration

	// WindowSched is the window scheduler's activity during the measured
	// Run, its window included. The whole Result, Stats and histograms
	// included, is byte-identical across same-seed runs.
	WindowSched ssp.WindowStats
}

// RunParallel executes the workload with one goroutine per client and
// returns aggregate plus per-core measurements. Setup and prefill run
// serially (deterministically); only the measured window is concurrent:
// core i runs its share of the operations back to back.
func RunParallel(p Params) ParallelResult {
	p = p.Defaults()
	m := ssp.MustNew(p.Machine)
	clients := buildParallelClients(m, p)
	return measure(m, p.Kind, p.Backend, p.Ops, func(w *window) {
		w.run(func(c *ssp.Core) {
			cl := clients[c.ID()]
			for n := w.share[c.ID()]; n > 0; n-- {
				cl.op()
			}
		})
	})
}

// buildParallelClients constructs per-core-sharded workload state. Every
// client's persistent structures are allocated from that client's own
// arena, so the concurrent phase never has two cores transacting on shared
// allocator or container metadata.
func buildParallelClients(m *ssp.Machine, p Params) []*client {
	switch p.Kind {
	case BTreeRand, BTreeZipf, RBTreeRand, RBTreeZipf, HashRand, HashZipf:
		nodeBytes := 64
		switch p.Kind {
		case BTreeRand, BTreeZipf:
			nodeBytes = 256
		case HashRand, HashZipf:
			nodeBytes = 32
		}
		pages := pagesFor(int(p.Keys)*nodeBytes + int(p.Keys/4)*8)
		return buildMicroKV(m, p, func(c *ssp.Core) ssp.Allocator { return m.NewArena(c, pages) })
	case SPS:
		// SPS clients are already fully sharded (one array per client) and
		// allocate nothing in steady state.
		return buildSPS(m, p)
	case Memcached, MemcachedCross:
		return buildShardedMemcached(m, p)
	case Vacation, VacationCross:
		return buildPartitionedVacation(m, p)
	default:
		panic("workload: kind not supported by the parallel driver")
	}
}

// pagesFor converts a byte estimate into whole pages with headroom.
func pagesFor(bytes int) int {
	pages := (bytes + ssp.PageBytes - 1) / ssp.PageBytes
	return pages + pages/2 + 4 // 1.5x + slack for class rounding
}
