package logging

import (
	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/txn"
)

// RedoConfig tunes the REDO-LOG baseline.
type RedoConfig struct {
	// QueueLines bounds each post-commit write-back queue; a commit that
	// finds its queue full stalls until there is room (DHTM's residual
	// critical-path cost).
	QueueLines int
	// WriteBackEngines is the number of independent background write-back
	// engines. The default 1 models DHTM's single engine per memory
	// controller — every core's post-commit write-backs drain through one
	// queue and one clock, which pins REDO's parallel speedup near 1x. With
	// N engines core c drains through engine c mod N, so per-core engines
	// remove the serialisation (the ROADMAP's ablation knob); the NVRAM
	// banks underneath are still shared, so genuine bandwidth contention
	// remains modelled.
	WriteBackEngines int
}

// DefaultRedoConfig matches the tuned baseline of §5.1.
func DefaultRedoConfig() RedoConfig { return RedoConfig{QueueLines: 64, WriteBackEngines: 1} }

// redoEngine is one background write-back engine: a bounded queue of
// in-flight line write-backs and the engine's own simulated clock.
//
// pending holds completion times of in-flight background write-backs,
// oldest first.
type redoEngine struct {
	pending []engine.Cycles
	clock   engine.Cycles
}

// reap removes completed write-backs from the queue head, moving the rest
// to the front so appends reuse the queue's storage.
func (e *redoEngine) reap(now engine.Cycles) {
	i := 0
	for i < len(e.pending) && e.pending[i] <= now {
		i++
	}
	if i > 0 {
		e.pending = e.pending[:copy(e.pending, e.pending[i:])]
	}
}

// Redo is the REDO-LOG baseline (DHTM-style hardware redo logging).
//
// Logs and write sets are per-core. The default single background
// write-back engine is the DHTM design — one engine at the memory
// controller — so commits contending on it is the modelled behaviour, not
// an artefact; RedoConfig.WriteBackEngines ablates that choice.
type Redo struct {
	env *txn.Env
	cfg RedoConfig

	next uint32 // the next commit's TID: drawn at commit, so TID order is commit order

	inTxn []bool
	log   *txn.Logs[struct{}] // its write sets hold the open txn's speculative lines

	engines []*redoEngine

	// img is what Commit reads each logged line's final value into: a
	// field, because the peek reaches memory through an interface, which
	// would move a local buffer to the heap on every line.
	img [memsim.LineBytes]byte
}

// NewRedo builds the baseline over env.
func NewRedo(env *txn.Env, cfg RedoConfig) *Redo {
	if cfg.QueueLines <= 0 {
		cfg = DefaultRedoConfig()
	}
	if cfg.WriteBackEngines <= 0 {
		cfg.WriteBackEngines = 1
	}
	r := &Redo{
		env:   env,
		cfg:   cfg,
		next:  1,
		inTxn: make([]bool, env.Cores()),
		log:   txn.NewLogs[struct{}](env, stats.CatRedoLog),
	}
	for i := 0; i < cfg.WriteBackEngines; i++ {
		r.engines = append(r.engines, &redoEngine{})
	}
	return r
}

// engineFor maps a committing core to its write-back engine.
func (r *Redo) engineFor(core int) *redoEngine {
	return r.engines[core%len(r.engines)]
}

// Name implements txn.Backend.
func (r *Redo) Name() string { return "REDO-LOG" }

// Begin implements txn.Backend.
func (r *Redo) Begin(core int, at engine.Cycles) engine.Cycles {
	if r.inTxn[core] {
		panic("redo: nested transaction")
	}
	r.inTxn[core] = true
	return at + r.env.BarrierCycles
}

// Store implements txn.Backend: unblocked store into the cache; the line is
// pinned as speculative so it cannot reach NVRAM in place before commit.
func (r *Redo) Store(core int, va uint64, data []byte, at engine.Cycles) engine.Cycles {
	if !r.inTxn[core] {
		panic("redo: Store outside transaction")
	}
	pa, la, t := lineOf(r.env, core, va, at)
	t = r.env.Caches.Store(core, pa, data, t)
	r.env.Caches.MarkTx(core, pa)
	ws := r.log.Set(core)
	if i, ok := ws.Find(la); !ok {
		ws.Insert(i, la, struct{}{})
		r.env.StatsFor(core).RedoRecords++
	}
	return t
}

// Load implements txn.Backend.
func (r *Redo) Load(core int, va uint64, buf []byte, at engine.Cycles) engine.Cycles {
	pa, _, t := lineOf(r.env, core, va, at)
	return r.env.Caches.Load(core, pa, buf, t)
}

// Commit implements txn.Backend. Critical path: log persistence (one
// final-state record per modified line) and the commit record, after
// waiting for write-back queue space. The data write-back itself runs in
// the background.
func (r *Redo) Commit(core int, at engine.Cycles) engine.Cycles {
	if !r.inTxn[core] {
		panic("redo: Commit outside transaction")
	}
	t := at
	lines := r.log.Set(core).Lines
	eng := r.engineFor(core)

	// Queue admission: wait until this core's engine has room for the
	// write set.
	eng.reap(t)
	if len(eng.pending)+len(lines) > r.cfg.QueueLines && len(eng.pending) > 0 {
		need := len(eng.pending) + len(lines) - r.cfg.QueueLines
		if need > len(eng.pending) {
			need = len(eng.pending)
		}
		stallFrom := t
		t = engine.MaxCycles(t, eng.pending[need-1])
		eng.reap(t)
		r.env.StatsFor(core).WritebackStalls++
		// The queue-admission stall is REDO-LOG's commit-critical
		// persistence wait, charged to the shared barrier-wait counter.
		r.env.StatsFor(core).CommitBarrierWait += uint64(t - stallFrom)
	}

	// Persist the redo log: predicted final state of each modified line.
	// The log can be reused once the commit record is durable: write-backs
	// are durably ordered after the log records, so any crash either
	// replays this transaction from the log or already sees its data in
	// place. The truncation empties the write set in place; lines keeps its
	// entries for the write-back below.
	r.log.Open(core, r.next)
	r.next++
	for _, la := range lines {
		r.env.Caches.DebugPeek(la, r.img[:]) // controller sees the final value
		t = r.log.Append(core, la, r.img[:], t)
	}
	t = r.log.Commit(core, t)

	// Background: write the data back in place, overlapping subsequent
	// execution. Functionally the lines become durable now (write order is
	// preserved); only the core's clock ignores the latency.
	bg := engine.MaxCycles(t, eng.clock)
	for _, la := range lines {
		done, _ := r.env.Caches.Flush(core, la, bg, stats.CatData)
		bg = done
		eng.pending = append(eng.pending, done)
	}
	eng.clock = bg
	r.inTxn[core] = false
	r.env.StatsFor(core).Commits++
	return t + r.env.BarrierCycles
}

// Abort implements txn.Backend: speculative lines exist only in the cache,
// so dropping them restores the committed state.
func (r *Redo) Abort(core int, at engine.Cycles) engine.Cycles {
	if !r.inTxn[core] {
		panic("redo: Abort outside transaction")
	}
	for _, la := range r.log.Set(core).Lines {
		r.env.Caches.InvalidateLine(la)
	}
	r.log.Truncate(core)
	r.inTxn[core] = false
	r.env.StatsFor(core).Aborts++
	return at + r.env.BarrierCycles
}

// StoreNT implements txn.Backend.
func (r *Redo) StoreNT(core int, va uint64, data []byte, at engine.Cycles) engine.Cycles {
	pa, _, t := lineOf(r.env, core, va, at)
	return r.env.Caches.Store(core, pa, data, t)
}

// Crash implements txn.Backend.
func (r *Redo) Crash() {
	for c := range r.inTxn {
		r.inTxn[c] = false
		r.log.Truncate(c)
	}
	for _, e := range r.engines {
		e.pending = e.pending[:0]
		e.clock = 0
	}
}

// Recover implements txn.Backend: replay the log of the last transaction
// whose commit record is durable; discard the rest (their in-place data
// never left the volatile caches).
//
// A commit writes its data back in place before it returns, and commits
// run one at a time, so only the last commit whose log reached NVRAM — the
// log holding the highest TID, since TIDs are drawn at commit — can have
// write-backs left to redo. Another core's committed log is stale: a
// Reset truncates a ring only in volatile state, and a later commit may
// have overwritten the same lines in place, which a replay would regress.
func (r *Redo) Recover() error {
	r.env.Stats.Recoveries++
	logs, maxTID, err := r.log.Read()
	if err != nil {
		return err
	}
	last := -1 // the first core whose log holds maxTID
	for c, l := range logs {
		if l.Interrupted() {
			r.env.Stats.RolledBackTxns++
		}
		if l.Records > 0 && (last < 0 || l.TID > logs[last].TID) {
			last = c
		}
	}
	if last >= 0 && logs[last].Committed {
		for _, line := range logs[last].Lines {
			r.env.Mem.WriteLine(line.PA, line.Line, 0, stats.CatRecovery)
			r.env.Stats.RecoveryNVWrites++
			r.env.Stats.ReplayedRecords++
		}
		r.env.Stats.RecoveredTxns++
	}
	r.next = max(r.next, maxTID+1)
	r.log.Resume(maxTID)
	return nil
}

// Drain implements txn.Backend: wait for every write-back queue to empty.
func (r *Redo) Drain(at engine.Cycles) engine.Cycles {
	t := at
	for _, e := range r.engines {
		t = engine.MaxCycles(t, e.clock)
		e.pending = e.pending[:0]
	}
	return t
}
