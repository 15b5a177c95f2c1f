// Package workload implements the paper's evaluation workloads (§5.1,
// Table 3): seven microbenchmarks over persistent data structures (B+-tree,
// red-black tree, hash table under random and zipfian key distributions,
// plus SPS array swaps) and two real-application emulations (memcached
// driven by a memslap-like generator, and a STAMP-Vacation-style OLTP mix).
//
// Clients are simulated cores. Three drivers run them: Run always steps
// the client with the lowest clock, so multi-client runs interleave
// deterministically while sharing memory-bank and lock timelines;
// RunParallel runs each client on its own core goroutine under
// Machine.Run; RunServe paces an open-loop kv mix the same way. All three
// measure through one window (measure), and each deployment — shared or
// sharded, all-local or cross-shard — has one builder.
package workload

import (
	"fmt"
	"slices"
	"time"

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
		p.Seed = defaultSeed
	}
	p.Machine = machineDefaults(p.Machine, p.Backend, p.Clients)
	return p
}

const defaultSeed = 0x55AA1234

// machineDefaults sets the machine every driver builds: the run's backend,
// one core per client, 192 MiB of NVRAM, 4 MiB of DRAM and a 36 Ki-page
// heap unless cfg says otherwise.
func machineDefaults(cfg ssp.Config, b ssp.Backend, clients int) ssp.Config {
	cfg.Backend = b
	cfg.Cores = clients
	if cfg.NVRAMMB == 0 {
		cfg.NVRAMMB = 192
	}
	if cfg.DRAMMB == 0 {
		cfg.DRAMMB = 4
	}
	if cfg.MaxHeapPages == 0 {
		cfg.MaxHeapPages = 36 << 10
	}
	return cfg
}

// commit closes one measured transaction in the run's durability mode.
func commit(c *ssp.Core, relaxed bool) {
	if relaxed {
		c.CommitRelaxed()
	} else {
		c.Commit()
	}
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
// window (setup and prefill excluded). Deterministic min-clock scheduling:
// the client with the lowest clock runs its next operation.
func Run(p Params) Result {
	p = p.Defaults()
	m := ssp.MustNew(p.Machine)
	clients := buildClients(m, p)
	return measure(m, p.Kind, p.Backend, p.Ops, func(w *window) {
		remaining := slices.Clone(w.share)
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
	}).Result
}

// window is the measured window all three drivers share. measure opens it
// after setup: it drains setup's background work, aligns every core's clock
// to the latest, clears the counters and splits the operations across the
// cores; then drive runs them. Closing, it reads the acknowledgment time,
// drains once more (hardening outstanding relaxed epochs) and assembles the
// aggregate and per-core result.
type window struct {
	m     *ssp.Machine
	start ssp.Cycles
	share []int         // operations per core
	wall  time.Duration // host time of the Machine.Run call (run)
}

// run executes body on every core's goroutine via Machine.Run and times
// exactly that call: ParallelResult.Wall.
func (w *window) run(body func(c *ssp.Core)) {
	t := time.Now()
	w.m.Run(body)
	w.wall = time.Since(t)
}

func measure(m *ssp.Machine, kind Kind, backend ssp.Backend, ops int, drive func(w *window)) ParallelResult {
	m.Drain()
	w := &window{m: m, start: m.MaxClock(), share: make([]int, m.Cores())}
	for i := range w.share {
		m.Core(i).SetNow(w.start)
		w.share[i] = ops / len(w.share)
		if i < ops%len(w.share) {
			w.share[i]++
		}
	}
	m.ResetStats()

	drive(w)
	acked := m.MaxClock() - w.start
	m.Drain()

	elapsed := m.MaxClock() - w.start
	res := ParallelResult{
		Result: Result{
			Kind:      kind,
			Backend:   backend,
			Clients:   len(w.share),
			Txns:      uint64(ops),
			Cycles:    elapsed,
			AckCycles: acked,
			Stats:     *m.Stats(),
			WriteSet:  *m.WriteSet(),
			Journal:   m.JournalPressure(),
		},
		Wall:        w.wall,
		WindowSched: m.WindowStats(),
	}
	if elapsed > 0 {
		res.TPS = float64(ops) / m.Seconds(elapsed)
	}
	if acked > 0 {
		res.CommittedTPS = float64(ops) / m.Seconds(acked)
	}
	for i, n := range w.share {
		coreElapsed := m.Core(i).Now() - w.start
		cst := m.CoreStats(i)
		cr := CoreResult{
			Core:        i,
			Txns:        uint64(n),
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

// buildClients constructs the workload state and per-client ops.
func buildClients(m *ssp.Machine, p Params) []*client {
	switch p.Kind {
	case BTreeRand, BTreeZipf, RBTreeRand, RBTreeZipf, HashRand, HashZipf:
		return buildMicroKV(m, p, func(*ssp.Core) ssp.Allocator { return m.Heap() })
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
