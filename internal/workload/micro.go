package workload

import (
	"repro/internal/engine"
	"repro/ssp"
	"repro/ssp/pds"
)

// microStore is the common interface of the keyed microbenchmark
// structures.
type microStore interface {
	Insert(tx *ssp.Core, k, v uint64) bool
	Delete(tx *ssp.Core, k uint64) bool
	Get(tx *ssp.Core, k uint64) (uint64, bool)
}

// buildMicroKV sets up the tree/hash microbenchmarks: each client owns a
// shard (its own structure, key space and lock), sharing the machine's
// memory system — the multi-client coupling is bandwidth and bank
// contention, as in the paper's scaling runs. alloc returns the allocator
// of client c's structure inside its setup transaction: the shared heap
// (Run) or a per-client arena (RunParallel).
func buildMicroKV(m *ssp.Machine, p Params, alloc func(c *ssp.Core) ssp.Allocator) []*client {
	rng := engine.NewRNG(p.Seed)
	var clients []*client
	for i := 0; i < p.Clients; i++ {
		c := m.Core(i)
		crng := rng.Fork()

		c.Begin()
		a := alloc(c)
		var s microStore
		switch p.Kind {
		case BTreeRand, BTreeZipf:
			s = pds.CreateBTree(c, a)
		case RBTreeRand, RBTreeZipf:
			s = pds.CreateRBTree(c, a)
		case HashRand, HashZipf:
			s = pds.CreateHash(c, a, int(p.Keys/4))
		}
		c.Commit()

		// Prefill: "the key/value pairs are generated prior to each run" —
		// each key present with probability 1/2 so the steady-state
		// search-then-insert-or-delete mix is balanced.
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
			commit(c, p.Relaxed)
			c.Release(lock)
		}
		clients = append(clients, cl)
	}
	return clients
}

// buildSPS sets up the SPS microbenchmark: swap two random elements of a
// large persistent array per transaction (Table 3: 2 lines / 2 pages).
func buildSPS(m *ssp.Machine, p Params) []*client {
	rng := engine.NewRNG(p.Seed)
	var clients []*client
	for i := 0; i < p.Clients; i++ {
		c := m.Core(i)
		crng := rng.Fork()

		c.Begin()
		arr := pds.CreateArray(c, m.Heap(), p.Elems)
		c.Commit()
		// Initialise in page-sized transactional chunks.
		for base := 0; base < p.Elems; base += 512 {
			c.Begin()
			for j := base; j < base+512 && j < p.Elems; j++ {
				arr.Set(c, j, uint64(j))
			}
			c.Commit()
		}

		lock := m.NewLock()
		cl := &client{core: c}
		cl.op = func() {
			i := crng.Intn(p.Elems)
			j := crng.Intn(p.Elems)
			c.Acquire(lock)
			c.Begin()
			arr.Swap(c, i, j)
			commit(c, p.Relaxed)
			c.Release(lock)
		}
		clients = append(clients, cl)
	}
	return clients
}
