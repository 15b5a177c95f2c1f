package workload

import (
	"time"

	"repro/internal/engine"
	"repro/ssp"
	"repro/ssp/kv"
	"repro/ssp/pds"
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

	// TimeWindow is the machine's deterministic-scheduler window size and
	// WindowSched the scheduler's activity during the measured Run — both
	// zero in free-running mode (Machine.TimeWindow == 0). When TimeWindow
	// > 0 the whole Result, Stats and histograms included, is byte-identical
	// across same-seed runs; at 0, cross-core timing and occupancy lines are
	// host-schedule dependent.
	TimeWindow  ssp.Cycles
	WindowSched ssp.WindowStats
}

// RunParallel executes the workload with one goroutine per client and
// returns aggregate plus per-core measurements. Setup and prefill run
// serially (deterministically); only the measured window is concurrent.
func RunParallel(p Params) ParallelResult {
	p = p.Defaults()
	m := ssp.MustNew(p.Machine)
	clients := buildParallelClients(m, p)

	// Measurement window: reset counters after setup, align clocks.
	m.Drain()
	start := m.MaxClock()
	for i := 0; i < p.Clients; i++ {
		m.Core(i).SetNow(start)
	}
	m.ResetStats()

	// Static op split: core i runs its share back to back on its goroutine.
	share := make([]int, p.Clients)
	for i := range share {
		share[i] = p.Ops / p.Clients
	}
	for i := 0; i < p.Ops%p.Clients; i++ {
		share[i]++
	}

	wallStart := time.Now()
	m.Run(func(c *ssp.Core) {
		cl := clients[c.ID()]
		for n := share[c.ID()]; n > 0; n-- {
			cl.op()
		}
	})
	wall := time.Since(wallStart)
	acked := m.MaxClock() - start
	m.Drain()

	elapsed := m.MaxClock() - start
	res := ParallelResult{
		Result: Result{
			Kind:      p.Kind,
			Backend:   p.Backend,
			Clients:   p.Clients,
			Txns:      uint64(p.Ops),
			Cycles:    elapsed,
			AckCycles: acked,
			Stats:     *m.Stats(),
			WriteSet:  *m.WriteSet(),
			Journal:   m.JournalPressure(),
		},
		Wall:        wall,
		TimeWindow:  ssp.Cycles(p.Machine.TimeWindow),
		WindowSched: m.WindowStats(),
	}
	if elapsed > 0 {
		res.TPS = float64(p.Ops) / m.Seconds(elapsed)
	}
	if acked > 0 {
		res.CommittedTPS = float64(p.Ops) / m.Seconds(acked)
	}
	for i := 0; i < p.Clients; i++ {
		coreElapsed := m.Core(i).Now() - start
		cst := m.CoreStats(i)
		cr := CoreResult{
			Core:        i,
			Txns:        uint64(share[i]),
			Commits:     cst.Commits,
			Cycles:      coreElapsed,
			BarrierWait: cst.CommitBarrierWait,
		}
		if coreElapsed > 0 {
			cr.TPS = float64(cr.Commits) / m.Seconds(coreElapsed)
		}
		res.PerCore = append(res.PerCore, cr)
	}
	return res
}

// buildParallelClients constructs per-core-sharded workload state. Every
// client's persistent structures are allocated from that client's own
// arena, so the concurrent phase never has two cores transacting on shared
// allocator or container metadata.
func buildParallelClients(m *ssp.Machine, p Params) []*client {
	switch p.Kind {
	case BTreeRand, BTreeZipf, RBTreeRand, RBTreeZipf, HashRand, HashZipf:
		return buildMicroKVParallel(m, p)
	case SPS:
		// SPS clients are already fully sharded (one array per client) and
		// allocate nothing in steady state.
		return buildSPS(m, p)
	case Memcached:
		return buildMemcachedParallel(m, p)
	case Vacation:
		return buildVacationParallel(m, p)
	case MemcachedCross:
		return buildMemcachedCross(m, p)
	case VacationCross:
		return buildVacationCross(m, p)
	default:
		panic("workload: kind not supported by the parallel driver")
	}
}

// pagesFor converts a byte estimate into whole pages with headroom.
func pagesFor(bytes int) int {
	pages := (bytes + ssp.PageBytes - 1) / ssp.PageBytes
	return pages + pages/2 + 4 // 1.5x + slack for class rounding
}

// buildMicroKVParallel is buildMicroKV with per-client arenas backing the
// tree/hash nodes.
func buildMicroKVParallel(m *ssp.Machine, p Params) []*client {
	rng := engine.NewRNG(p.Seed)
	nodeBytes := 64
	switch p.Kind {
	case BTreeRand, BTreeZipf:
		nodeBytes = 256
	case HashRand, HashZipf:
		nodeBytes = 32
	}
	arenaPages := pagesFor(int(p.Keys)*nodeBytes + int(p.Keys/4)*8)
	var clients []*client
	for i := 0; i < p.Clients; i++ {
		c := m.Core(i)
		crng := rng.Fork()

		c.Begin()
		arena := m.NewArena(c, arenaPages)
		var s microStore
		switch p.Kind {
		case BTreeRand, BTreeZipf:
			s = pds.CreateBTree(c, arena)
		case RBTreeRand, RBTreeZipf:
			s = pds.CreateRBTree(c, arena)
		case HashRand, HashZipf:
			s = pds.CreateHash(c, arena, int(p.Keys/4))
		}
		c.Commit()

		prng := crng.Fork()
		for k := uint64(0); k < p.Keys; k++ {
			if prng.Uint64()&1 == 0 {
				continue
			}
			c.Begin()
			s.Insert(c, k, prng.Uint64())
			c.Commit()
		}

		d := dist(p.Kind, p.Keys, crng)
		lock := m.NewLock()
		vrng := crng.Fork()
		cl := &client{core: c}
		cl.op = func() {
			k := d.Next()
			c.Acquire(lock)
			c.Begin()
			if _, found := s.Get(c, k); found {
				s.Delete(c, k)
			} else {
				s.Insert(c, k, vrng.Uint64())
			}
			p.commit(c)
			c.Release(lock)
		}
		clients = append(clients, cl)
	}
	return clients
}

// buildMemcachedParallel shards the cache: each core owns one kv.Cache
// (its own buckets, eviction list and arena) and a slice of the key space —
// a sharded memcached, with one lock per shard standing in for the
// per-instance lock.
func buildMemcachedParallel(m *ssp.Machine, p Params) []*client {
	perItems := p.Items / p.Clients
	if perItems < 16 {
		perItems = 16
	}
	entry := 40 + p.ValueBytes
	arenaPages := pagesFor(perItems*entry + (perItems/4)*8)

	rng := engine.NewRNG(p.Seed)
	var clients []*client
	for i := 0; i < p.Clients; i++ {
		c := m.Core(i)
		crng := rng.Fork()

		c.Begin()
		arena := m.NewArena(c, arenaPages)
		shard := kv.Create(c, arena, kv.Config{
			Buckets:    perItems / 4,
			Capacity:   perItems,
			ValueBytes: p.ValueBytes,
		})
		c.Commit()

		// Prefill this shard to capacity so steady state includes
		// evictions, as in the serial build.
		fill := make([]byte, p.ValueBytes)
		for k := 0; k < perItems; k++ {
			fill[0] = byte(k)
			c.Begin()
			shard.Set(c, uint64(k), fill)
			c.Commit()
		}

		keySpace := uint64(perItems) * 2 // half the keys miss / insert-evict
		lock := m.NewLock()
		val := make([]byte, p.ValueBytes)
		buf := make([]byte, p.ValueBytes)
		cl := &client{core: c}
		cl.op = func() {
			k := crng.Uint64n(keySpace)
			if crng.Intn(10) == 0 { // 10% GET
				c.Acquire(lock)
				shard.Get(c, k, buf)
				c.Release(lock)
				return
			}
			val[0] = byte(k)
			val[1] = byte(crng.Intn(256))
			c.Acquire(lock)
			c.Begin()
			shard.Set(c, k, val)
			p.commit(c)
			c.Release(lock)
		}
		clients = append(clients, cl)
	}
	return clients
}

// buildVacationParallel shards the OLTP state: each core owns a full table
// set (cars/flights/rooms/customers) over its own tuple range and arena —
// the database-partitioned deployment of the same transaction mix.
func buildVacationParallel(m *ssp.Machine, p Params) []*client {
	perTuples := p.Tuples / p.Clients
	if perTuples < 64 {
		perTuples = 64
	}
	arenaPages := pagesFor(perTuples*(vacResourceTables+1)*64 + perTuples*vacReserveEntry)

	seedRng := engine.NewRNG(p.Seed + 7)
	var clients []*client
	for i := 0; i < p.Clients; i++ {
		c := m.Core(i)

		c.Begin()
		arena := m.NewArena(c, arenaPages)
		st := &vacationState{tuples: perTuples, alloc: arena, commit: p.commit}
		for t := 0; t < vacResourceTables; t++ {
			st.resources[t] = pds.CreateRBTree(c, arena)
		}
		st.customers = pds.CreateRBTree(c, arena)
		c.Commit()

		for id := 0; id < perTuples; id++ {
			c.Begin()
			for tbl := 0; tbl < vacResourceTables; tbl++ {
				price := uint32(50 + seedRng.Intn(450))
				st.resources[tbl].Insert(c, uint64(id), packResource(100, price))
			}
			c.Commit()
		}

		lock := m.NewLock()
		crng := seedRng.Fork()
		cl := &client{core: c}
		cl.op = func() {
			r := crng.Intn(10)
			c.Acquire(lock)
			switch {
			case r < 8:
				vacMakeReservation(c, st, crng)
			case r < 9:
				vacDeleteCustomer(c, st, crng)
			default:
				vacUpdateTables(c, st, crng)
			}
			c.Release(lock)
		}
		clients = append(clients, cl)
	}
	return clients
}
