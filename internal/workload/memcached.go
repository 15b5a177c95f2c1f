package workload

import (
	"repro/internal/engine"
	"repro/ssp"
	"repro/ssp/kv"
)

// buildMemcached sets up the memcached workload: one shared persistent
// cache, lock striping over buckets, and memslap-like clients issuing 90%
// SET / 10% GET (§5.1: "Memslap as workload generator; Four clients; 90%
// SET").
func buildMemcached(m *ssp.Machine, p Params) []*client {
	const stripes = 16
	locks := make([]*ssp.Lock, stripes)
	for i := range locks {
		locks[i] = m.NewLock()
	}

	boot := m.Core(0)
	boot.Begin()
	cache := kv.Create(boot, m.Heap(), kv.Config{
		Buckets:    p.Items / 4,
		Capacity:   p.Items,
		ValueBytes: p.ValueBytes,
	})
	boot.Commit()

	// Prefill to capacity so steady state includes evictions.
	rng := engine.NewRNG(p.Seed)
	fill := make([]byte, p.ValueBytes)
	for k := 0; k < p.Items; k++ {
		fill[0] = byte(k)
		boot.Begin()
		cache.Set(boot, uint64(k), fill)
		boot.Commit()
	}

	keySpace := uint64(p.Items) * 2 // half the keys miss / insert-evict
	var clients []*client
	for i := 0; i < p.Clients; i++ {
		c := m.Core(i)
		crng := rng.Fork()
		val := make([]byte, p.ValueBytes)
		buf := make([]byte, p.ValueBytes)
		cl := &client{core: c}
		cl.op = func() {
			k := crng.Uint64n(keySpace)
			lock := locks[(k*0x9e3779b97f4a7c15)%stripes]
			if crng.Intn(10) == 0 { // 10% GET
				c.Acquire(lock)
				cache.Get(c, k, buf)
				c.Release(lock)
				return
			}
			val[0] = byte(k)
			val[1] = byte(crng.Intn(256))
			c.Acquire(lock)
			c.Begin()
			cache.Set(c, k, val)
			commit(c, p.Relaxed)
			c.Release(lock)
		}
		clients = append(clients, cl)
	}
	return clients
}

// buildShardedMemcached shards the cache: each core owns one kv.Cache (its
// own buckets, eviction list and arena) and a slice of the key space — a
// sharded memcached, with one lock per shard standing in for the
// per-instance lock. In the MemcachedCross mix a global transaction SETs
// one key in each of 2-4 shards — the multi-key distributed write of a
// sharded cache — holding every touched shard's lock (crossmix.go).
func buildShardedMemcached(m *ssp.Machine, p Params) []*client {
	perItems := max(p.Items/p.Clients, 16)
	keySpace := uint64(perItems) * 2 // half the keys miss / insert-evict

	rng := engine.NewRNG(p.Seed)
	shards := make([]*kv.Cache, p.Clients)
	locks := make([]*ssp.Lock, p.Clients)
	var clients []*client
	for i := range shards {
		c := m.Core(i)
		crng := rng.Fork()
		// Prefilled to capacity so steady state includes evictions, as in
		// the serial build.
		shards[i], _ = newKVShard(m, c, perItems, p.ValueBytes, perItems, 0)
		locks[i] = m.NewLock()

		val := make([]byte, p.ValueBytes)
		buf := make([]byte, p.ValueBytes)
		cl := &client{core: c}
		cl.op = func() {
			k := crng.Uint64n(keySpace)
			if crossCoin(p, crng) {
				val[0] = byte(k)
				val[1] = byte(crng.Intn(256))
				global(c, crng, locks, i, p.Relaxed, func(s int) { shards[s].Set(c, k, val) })
				return
			}
			if crng.Intn(10) == 0 { // 10% GET
				c.Acquire(locks[i])
				shards[i].Get(c, k, buf)
				c.Release(locks[i])
				return
			}
			val[0] = byte(k)
			val[1] = byte(crng.Intn(256))
			c.Acquire(locks[i])
			c.Begin()
			shards[i].Set(c, k, val)
			commit(c, p.Relaxed)
			c.Release(locks[i])
		}
		clients = append(clients, cl)
	}
	return clients
}

// newKVShard creates core c's kv shard in an arena of its own: a cache of
// capacity items of valueBytes, plus a recencyBytes table beside it in the
// arena when recencyBytes > 0, then SETs keys 0..fill-1, so GETs of them hit
// and, with fill at capacity, SETs of fresh keys evict. It returns the cache
// and the table's address.
func newKVShard(m *ssp.Machine, c *ssp.Core, capacity, valueBytes, fill, recencyBytes int) (*kv.Cache, uint64) {
	c.Begin()
	arena := m.NewArena(c, pagesFor(capacity*(40+valueBytes)+(capacity/4)*8+recencyBytes))
	cache := kv.Create(c, arena, kv.Config{
		Buckets:    capacity / 4,
		Capacity:   capacity,
		ValueBytes: valueBytes,
	})
	var recency uint64
	if recencyBytes > 0 {
		recency = arena.Alloc(c, recencyBytes)
	}
	c.Commit()
	val := make([]byte, valueBytes)
	for k := 0; k < fill; k++ {
		val[0] = byte(k)
		c.Begin()
		cache.Set(c, uint64(k), val)
		c.Commit()
	}
	return cache, recency
}
