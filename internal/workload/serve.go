package workload

import (
	"repro/internal/engine"
	"repro/internal/loadgen"
	"repro/internal/stats"
	"repro/ssp"
	"repro/ssp/kv"
)

// This file is the in-process complement of the TCP front end
// (internal/server + loadgen.RunTCP): the same sharded-kv service and the
// same open-loop arrival schedule, but with arrivals and latencies in
// simulated cycles — deterministic, and measuring the modeled hardware
// (commit path, journal, epochs) rather than host scheduling noise. Each
// core plays both its connection handlers and its worker: operation k is
// scheduled at start + k*interval on the core's own clock; if the core is
// still busy when the arrival comes due, the operation queues and its
// latency includes the wait, exactly like a backed-up worker queue.

// ServeParams configures an open-loop serve run.
type ServeParams struct {
	Backend ssp.Backend
	Clients int // cores = server workers (default 1)

	Ops        int     // total operations across clients (default 4000)
	Keys       uint64  // key space per core shard (default = Items)
	Items      int     // per-core cache capacity (default 4096)
	ValueBytes int     // value size (default 64)
	ReadPct    int     // percent GETs (default 50)
	DelPct     int     // percent DELs (default 5)
	Skew       float64 // Zipf exponent of the key distribution (0 = uniform)

	// OfferedTPS is the total offered load in operations per simulated
	// second across all clients; 0 runs closed loop (each op arrives when
	// the previous completes — a capacity probe).
	OfferedTPS float64

	// TouchOnGet stamps each GET's key into a per-core recency table — one
	// line per key, written with a plain non-transactional store, the way
	// memcached bumps an item's LRU metadata on every hit. The stamps are
	// legally volatile (a crash may lose them), so in the bare-NVRAM model
	// they surface as dirty cache victims written back to NVRAM, and a DRAM
	// buffer tier (Machine.DRAMCacheFrames) can absorb them entirely.
	// Default off: the historical serve mix, bit-for-bit.
	TouchOnGet bool

	Relaxed bool // ack writes with CommitRelaxed (needs Machine.DurabilityEpoch)
	Seed    uint64

	Machine ssp.Config // base machine config; Backend/Cores overridden
}

// Defaults fills zero fields like Params.Defaults.
func (p ServeParams) Defaults() ServeParams {
	if p.Clients <= 0 {
		p.Clients = 1
	}
	if p.Ops <= 0 {
		p.Ops = 4000
	}
	if p.Items <= 0 {
		p.Items = 4096
	}
	if p.Keys == 0 {
		p.Keys = uint64(p.Items)
	}
	if p.ValueBytes <= 0 {
		p.ValueBytes = 64
	}
	if p.ReadPct == 0 {
		p.ReadPct = 50
	}
	if p.DelPct == 0 {
		p.DelPct = 5
	}
	if p.Seed == 0 {
		p.Seed = defaultSeed
	}
	p.Machine = machineDefaults(p.Machine, p.Backend, p.Clients)
	return p
}

// RunServe executes the serve workload with one goroutine per core via
// Machine.Run and returns aggregate plus per-core measurements,
// with Result.AckHist and the latency percentiles populated.
func RunServe(p ServeParams) ParallelResult {
	p = p.Defaults()
	m := ssp.MustNew(p.Machine)

	// Serial setup: one kv shard per core, prefilled to capacity so GETs
	// hit and steady-state SETs of fresh keys evict.
	recencyBytes := 0
	if p.TouchOnGet {
		// One full line per key: memcached keeps an item's LRU metadata in
		// its header line, so each hot key dirties its own line.
		recencyBytes = int(p.Keys) * 64
	}
	shards := make([]*kv.Cache, p.Clients)
	recency := make([]uint64, p.Clients)
	fill := int(min(p.Keys, uint64(p.Items)))
	for i := range shards {
		shards[i], recency[i] = newKVShard(m, m.Core(i), p.Items, p.ValueBytes, fill, recencyBytes)
	}

	parent := loadgen.New(loadgen.Config{
		Keys:    p.Keys,
		Skew:    p.Skew,
		ReadPct: p.ReadPct,
		DelPct:  p.DelPct,
		Seed:    p.Seed,
	})
	hists := make([]stats.Histogram, p.Clients)
	perRate := p.OfferedTPS / float64(p.Clients)
	freq := m.FreqGHz()

	res := measure(m, Memcached, p.Backend, p.Ops, func(w *window) {
		w.run(func(c *ssp.Core) {
			id := c.ID()
			shard := shards[id]
			stream := parent.Fork(id)
			pacer := loadgen.CyclePacer(w.start, freq, perRate)
			hist := &hists[id]
			val := make([]byte, p.ValueBytes)
			buf := make([]byte, p.ValueBytes)
			for k := 0; k < w.share[id]; k++ {
				arrival := engine.Cycles(pacer.Arrival(k))
				if pacer.Interval() == 0 {
					arrival = c.Now() // closed loop: latency is pure service time
				} else if c.Now() < arrival {
					c.SetNow(arrival) // idle until the scheduled arrival
				}
				op := stream.Next()
				switch op.Kind {
				case loadgen.OpGet:
					shard.Get(c, op.Key, buf)
					if p.TouchOnGet {
						// Plain store outside any transaction: an LRU-style
						// recency stamp with no durability requirement.
						c.Store64(recency[id]+(op.Key%p.Keys)*64, uint64(k))
					}
				case loadgen.OpSet:
					val[0] = byte(op.Key)
					c.Begin()
					shard.Set(c, op.Key, val)
					commit(c, p.Relaxed)
				case loadgen.OpDel:
					c.Begin()
					shard.Delete(c, op.Key)
					commit(c, p.Relaxed)
				}
				hist.Record(uint64(c.Now() - arrival))
			}
		})
	})

	merged := &stats.Histogram{}
	for i := range hists {
		merged.Merge(&hists[i])
	}
	res.AckHist = merged
	res.LatencyP50 = ssp.Cycles(merged.Percentile(50))
	res.LatencyP99 = ssp.Cycles(merged.Percentile(99))
	res.LatencyP999 = ssp.Cycles(merged.Percentile(99.9))
	res.OfferedTPS = p.OfferedTPS
	return res
}
