package workload

import (
	"sort"

	"repro/internal/engine"
	"repro/ssp"
)

// Cross-shard transaction mixes (beyond the paper): the sharded memcached
// and partitioned vacation deployments, with CrossPct percent of each
// core's transactions made *global* — a single BeginGlobal section writing
// 2-4 cores' shards/arenas at once. These are the distributed commits over
// multiple arenas the ROADMAP called unexplored: under SSP with sharded
// journals they drive the two-phase cross-shard commit protocol (prepare
// records in every participant journal shard, one coordinator end record);
// under the logging baselines, or with one journal shard, they are ordinary
// transactions with a wider footprint, which makes the mixes a fair
// cross-backend comparison.
//
// Isolation follows the repo's locking discipline: every shard keeps its
// per-shard lock, and a global transaction acquires the locks of all its
// participants in ascending core order before Begin — the same total order
// on every core, so global and local ops can never deadlock.

// crossCoin draws whether a client's next transaction is global. Only the
// cross kinds with more than one client draw it, so the all-local kinds
// keep their random streams.
func crossCoin(p Params, rng *engine.RNG) bool {
	return (p.Kind == MemcachedCross || p.Kind == VacationCross) && p.Clients > 1 && rng.Intn(100) < p.CrossPct
}

// global runs one cross-shard transaction from core own: it draws 2-4
// participant shards (own included), acquires their locks in ascending
// order, applies body to each participant inside one BeginGlobal section,
// commits in the run's mode and releases the locks in reverse.
func global(c *ssp.Core, rng *engine.RNG, locks []*ssp.Lock, own int, relaxed bool, body func(shard int)) {
	targets := pickShards(rng, len(locks), own, crossFanout(rng, len(locks)))
	for _, s := range targets {
		c.Acquire(locks[s])
	}
	c.BeginGlobal()
	for _, s := range targets {
		body(s)
	}
	commit(c, relaxed)
	for j := len(targets) - 1; j >= 0; j-- {
		c.Release(locks[targets[j]])
	}
}

// pickShards selects n distinct shard indices including own, returned in
// ascending order (the lock-acquisition order).
func pickShards(rng *engine.RNG, clients, own, n int) []int {
	chosen := map[int]bool{own: true}
	out := []int{own}
	for len(out) < n {
		s := rng.Intn(clients)
		if chosen[s] {
			continue
		}
		chosen[s] = true
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// crossFanout draws the number of shards a global transaction touches:
// 2-4, capped at the client count.
func crossFanout(rng *engine.RNG, clients int) int {
	n := 2 + rng.Intn(3)
	if n > clients {
		n = clients
	}
	return n
}
