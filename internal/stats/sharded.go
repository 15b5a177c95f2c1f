package stats

// Sharded splits one logical counter set across per-core shards plus one
// shared shard and one shard per memory channel, so per-core and per-channel
// rows can be reported apart. Every field of Stats is a sum (or a max that
// commutes), so the aggregate is order-independent: it does not matter which
// core performed an increment or in which interleaving — the aggregated
// totals are the same as a serial run performing the same work.
//
// Shard ownership contract:
//
//   - Shard(i) is written only by the goroutine driving core i (TLB
//     lookups, per-core backend counters). No lock is needed.
//   - Shared() is written by the shared structures (the cache hierarchy,
//     the SSP backend's background work) on whichever core holds the
//     window scheduler's execution slot — one core at a time.
//   - ChannelShards(n) shards are written only by the owning memory
//     channel, likewise inside the execution slot.
//
// Aggregate and Reset are not safe to call concurrently with simulated
// execution; callers quiesce the machine first (join the core goroutines).
type Sharded struct {
	perCore  []Stats
	channels []Stats
	shared   Stats
}

// NewSharded returns a shard set for the given core count.
func NewSharded(cores int) *Sharded {
	return &Sharded{perCore: make([]Stats, cores)}
}

// Shard returns core i's private shard.
func (s *Sharded) Shard(i int) *Stats { return &s.perCore[i] }

// Shared returns the shard for counters updated under shared-structure
// locks (memory system, cache hierarchy, journal).
func (s *Sharded) Shared() *Stats { return &s.shared }

// Cores returns the number of per-core shards.
func (s *Sharded) Cores() int { return len(s.perCore) }

// ChannelShards allocates (or reallocates) n shards dedicated to the memory
// channels and returns pointers to them, in channel order. Each shard is
// written only under its channel's timing lock, so concurrently executing
// cores that hit different channels never write the same counters. The
// shards participate in Aggregate and Reset like every other shard.
func (s *Sharded) ChannelShards(n int) []*Stats {
	s.channels = make([]Stats, n)
	out := make([]*Stats, n)
	for i := range s.channels {
		out[i] = &s.channels[i]
	}
	return out
}

// Aggregate sums every shard into one Stats value.
func (s *Sharded) Aggregate() Stats {
	var out Stats
	out.Add(&s.shared)
	for i := range s.perCore {
		out.Add(&s.perCore[i])
	}
	for i := range s.channels {
		out.Add(&s.channels[i])
	}
	return out
}

// PerCore returns a copy of core i's shard (per-core reporting).
func (s *Sharded) PerCore(i int) Stats { return s.perCore[i] }

// Reset zeroes every shard.
func (s *Sharded) Reset() {
	s.shared = Stats{}
	for i := range s.perCore {
		s.perCore[i] = Stats{}
	}
	for i := range s.channels {
		s.channels[i] = Stats{}
	}
}
