// Package workload implements the paper's evaluation workloads (§5.1,
// Table 3): seven microbenchmarks over persistent data structures (B+-tree,
// red-black tree, hash table under random and zipfian key distributions,
// plus SPS array swaps) and two real-application emulations (memcached
// driven by a memslap-like generator, and a STAMP-Vacation-style OLTP mix).
//
// Clients are simulated cores. The driver always steps the client with the
// lowest clock, so multi-client runs interleave deterministically while
// sharing memory-bank and lock timelines.
package workload

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/stats"
	"repro/ssp"
)

// Kind identifies one workload.
type Kind int

// The paper's workloads, plus the cross-shard transaction mixes (beyond the
// paper): MemcachedCross and VacationCross are the sharded memcached and
// partitioned vacation deployments in which CrossPct percent of the
// transactions are global — each touches 2-4 cores' shards/arenas under a
// single BeginGlobal section, exercising the distributed commit protocol.
// The cross kinds run on the parallel driver only.
const (
	BTreeRand Kind = iota
	RBTreeRand
	HashRand
	SPS
	BTreeZipf
	RBTreeZipf
	HashZipf
	Memcached
	Vacation
	MemcachedCross
	VacationCross
)

// String returns the paper's workload name.
func (k Kind) String() string {
	switch k {
	case BTreeRand:
		return "BTree-Rand"
	case RBTreeRand:
		return "RBTree-Rand"
	case HashRand:
		return "Hash-Rand"
	case SPS:
		return "SPS"
	case BTreeZipf:
		return "BTree-Zipf"
	case RBTreeZipf:
		return "RBTree-Zipf"
	case HashZipf:
		return "Hash-Zipf"
	case Memcached:
		return "Memcached"
	case Vacation:
		return "Vacation"
	case MemcachedCross:
		return "Memcached-Cross"
	case VacationCross:
		return "Vacation-Cross"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Micro lists the seven microbenchmarks in figure order.
func Micro() []Kind {
	return []Kind{BTreeRand, RBTreeRand, HashRand, SPS, BTreeZipf, RBTreeZipf, HashZipf}
}

// Real lists the two real workloads.
func Real() []Kind { return []Kind{Memcached, Vacation} }

// All lists every workload.
func All() []Kind { return append(Micro(), Real()...) }

// Params configures one run. Zero fields take defaults (see Defaults).
type Params struct {
	Kind    Kind
	Backend ssp.Backend
	Clients int // simulated cores (paper: 1 and 4)

	Ops  int    // measured transactions (total across clients)
	Keys uint64 // key space per client shard (trees/hash)
	Seed uint64

	Elems      int // SPS array elements per client
	Items      int // memcached capacity
	ValueBytes int // memcached value size
	Tuples     int // vacation rows per table

	// CrossPct is the percentage of transactions that are cross-shard
	// globals in the MemcachedCross/VacationCross mixes (0 = all-local;
	// ignored by the other kinds and with a single client).
	CrossPct int

	// Relaxed commits every MEASURED transaction with Core.CommitRelaxed
	// instead of Core.Commit: the epoch-batched relaxed-durability mode,
	// governed by Machine.DurabilityEpoch (with an epoch of 0 the run is
	// bit-for-bit the synchronous one). Setup and prefill stay synchronous.
	// The run's Result then separates CommittedTPS (acknowledgment-time
	// throughput) from TPS (durable, including the closing drain).
	Relaxed bool

	Machine ssp.Config // base machine config; Backend/Cores overridden
}

// commit closes one measured transaction in the run's durability mode.
func (p Params) commit(c *ssp.Core) {
	if p.Relaxed {
		c.CommitRelaxed()
	} else {
		c.Commit()
	}
}

// Defaults fills in simulation-friendly defaults.
func (p Params) Defaults() Params {
	if p.Clients <= 0 {
		p.Clients = 1
	}
	if p.Ops <= 0 {
		p.Ops = 4000
	}
	if p.Keys == 0 {
		p.Keys = 16384
	}
	if p.Elems <= 0 {
		p.Elems = 1 << 16
	}
	if p.Items <= 0 {
		p.Items = 8192
	}
	if p.ValueBytes <= 0 {
		p.ValueBytes = 64
	}
	if p.Tuples <= 0 {
		p.Tuples = 16384
	}
	if p.Seed == 0 {
		p.Seed = 0x55AA1234
	}
	p.Machine.Backend = p.Backend
	p.Machine.Cores = p.Clients
	if p.Machine.NVRAMMB == 0 {
		p.Machine.NVRAMMB = 192
	}
	if p.Machine.DRAMMB == 0 {
		p.Machine.DRAMMB = 4
	}
	if p.Machine.MaxHeapPages == 0 {
		p.Machine.MaxHeapPages = 36 << 10
	}
	return p
}

// Result is one run's measurements.
type Result struct {
	Kind    Kind
	Backend ssp.Backend
	Clients int

	Txns     uint64
	Cycles   ssp.Cycles // measured-window wall clock (through the drain)
	TPS      float64    // durable transactions per simulated second
	Stats    ssp.Stats  // measured-window counters
	WriteSet ssp.WriteSetStats

	// AckCycles is the window up to the last transaction's acknowledgment,
	// BEFORE the closing drain that hardens outstanding relaxed epochs, and
	// CommittedTPS the throughput over it. The committed-vs-durable spread
	// is the relaxed mode's gain; synchronous runs see the two match up to
	// the (cheap) drain.
	AckCycles    ssp.Cycles
	CommittedTPS float64

	// Journal is the SSP metadata journal's per-shard pressure at the end
	// of the measured window (nil for the logging backends).
	Journal []ssp.JournalShardPressure

	// AckHist is the per-operation acknowledgment-latency histogram in
	// simulated cycles, recorded only by drivers that schedule arrivals
	// (RunServe); nil elsewhere. Latency is measured from each operation's
	// scheduled open-loop arrival to its acknowledgment, so queueing delay
	// under overload is included. LatencyP50/P99/P999 are its percentiles
	// and OfferedTPS the offered load (0 = closed loop).
	AckHist                             *stats.Histogram
	LatencyP50, LatencyP99, LatencyP999 ssp.Cycles
	OfferedTPS                          float64
}

// client is one simulated client: a core plus its per-transaction op.
type client struct {
	core *ssp.Core
	op   func()
}

// Run executes the workload and returns measurements for the steady-state
// window (setup and prefill excluded).
func Run(p Params) Result {
	p = p.Defaults()
	m := ssp.MustNew(p.Machine)
	clients := buildClients(m, p)

	// Measurement window: reset counters after setup, align clocks.
	m.Drain()
	start := m.MaxClock()
	for i := 0; i < p.Clients; i++ {
		m.Core(i).SetNow(start)
	}
	m.ResetStats()

	// Deterministic min-clock scheduling.
	remaining := make([]int, p.Clients)
	for i := range remaining {
		remaining[i] = p.Ops / p.Clients
	}
	for i := 0; i < p.Ops%p.Clients; i++ {
		remaining[i]++
	}
	for {
		best := -1
		for i, c := range clients {
			if remaining[i] == 0 {
				continue
			}
			if best < 0 || c.core.Now() < clients[best].core.Now() {
				best = i
			}
		}
		if best < 0 {
			break
		}
		clients[best].op()
		remaining[best]--
	}
	acked := m.MaxClock() - start
	m.Drain()

	elapsed := m.MaxClock() - start
	res := Result{
		Kind:      p.Kind,
		Backend:   p.Backend,
		Clients:   p.Clients,
		Txns:      uint64(p.Ops),
		Cycles:    elapsed,
		AckCycles: acked,
		Stats:     *m.Stats(),
		WriteSet:  *m.WriteSet(),
		Journal:   m.JournalPressure(),
	}
	if elapsed > 0 {
		res.TPS = float64(p.Ops) / m.Seconds(elapsed)
	}
	if acked > 0 {
		res.CommittedTPS = float64(p.Ops) / m.Seconds(acked)
	}
	return res
}

// buildClients constructs the workload state and per-client ops.
func buildClients(m *ssp.Machine, p Params) []*client {
	switch p.Kind {
	case BTreeRand, BTreeZipf, RBTreeRand, RBTreeZipf, HashRand, HashZipf:
		return buildMicroKV(m, p)
	case SPS:
		return buildSPS(m, p)
	case Memcached:
		return buildMemcached(m, p)
	case Vacation:
		return buildVacation(m, p)
	case MemcachedCross, VacationCross:
		panic("workload: cross-shard mixes require the parallel driver (RunParallel)")
	default:
		panic("workload: unknown kind")
	}
}

// dist builds the workload's key distribution over n keys.
func dist(k Kind, n uint64, rng *engine.RNG) engine.Dist {
	switch k {
	case BTreeZipf, RBTreeZipf, HashZipf:
		return engine.NewPaperZipf(n, rng)
	default:
		return engine.NewUniform(n, rng)
	}
}
