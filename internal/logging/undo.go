package logging

import (
	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/txn"
)

// Undo is the UNDO-LOG baseline: hardware undo logging with in-place data
// updates. Each first store to a line persists the old value before the
// store may proceed (the store "will be blocked until the log entry reaches
// persistent memory"); repeated updates to a logged line are free. All log
// state is per-core.
type Undo struct {
	env  *txn.Env
	next uint32 // the next transaction's TID, drawn at Begin

	inTxn []bool
	// log's write sets hold the pre-transaction image of every logged line,
	// both the volatile dedup set and the data needed by Abort.
	log *txn.Logs[[memsim.LineBytes]byte]
}

// NewUndo builds the baseline over env.
func NewUndo(env *txn.Env) *Undo {
	return &Undo{
		env:   env,
		next:  1,
		inTxn: make([]bool, env.Cores()),
		log:   txn.NewLogs[[memsim.LineBytes]byte](env, stats.CatUndoLog),
	}
}

// Name implements txn.Backend.
func (u *Undo) Name() string { return "UNDO-LOG" }

// Begin implements txn.Backend.
func (u *Undo) Begin(core int, at engine.Cycles) engine.Cycles {
	if u.inTxn[core] {
		panic("undo: nested transaction")
	}
	u.inTxn[core] = true
	u.log.Open(core, u.next)
	u.next++
	return at + u.env.BarrierCycles
}

// Store implements txn.Backend: log-then-update, blocking on the log write.
func (u *Undo) Store(core int, va uint64, data []byte, at engine.Cycles) engine.Cycles {
	if !u.inTxn[core] {
		panic("undo: Store outside transaction")
	}
	pa, la, t := lineOf(u.env, core, va, at)
	if i, logged := u.log.Set(core).Find(la); !logged {
		// First store to this line: read the old image and persist an undo
		// record before the store proceeds.
		var img [memsim.LineBytes]byte
		t = u.env.Caches.Load(core, la, img[:], t)
		t = u.log.LogUndo(core, i, la, img, img[:], t)
	}
	return u.env.Caches.Store(core, pa, data, t)
}

// Load implements txn.Backend.
func (u *Undo) Load(core int, va uint64, buf []byte, at engine.Cycles) engine.Cycles {
	pa, _, t := lineOf(u.env, core, va, at)
	return u.env.Caches.Load(core, pa, buf, t)
}

// Commit implements txn.Backend: flush the write set, persist the commit
// record, truncate.
func (u *Undo) Commit(core int, at engine.Cycles) engine.Cycles {
	if !u.inTxn[core] {
		panic("undo: Commit outside transaction")
	}
	fence := at
	for _, la := range u.log.Set(core).Lines {
		done, _ := u.env.Caches.Flush(core, la, at, stats.CatData)
		fence = engine.MaxCycles(fence, done)
	}
	// The write-set flush fence is UNDO-LOG's commit-critical persistence
	// wait — the same quantity SSP surfaces, so the commit-path experiment
	// compares designs on one counter.
	u.env.StatsFor(core).CommitBarrierWait += uint64(fence - at)
	t := u.log.Commit(core, fence)
	u.inTxn[core] = false
	u.env.StatsFor(core).Commits++
	return t + u.env.BarrierCycles
}

// Abort implements txn.Backend: restore logged old images in cache.
func (u *Undo) Abort(core int, at engine.Cycles) engine.Cycles {
	if !u.inTxn[core] {
		panic("undo: Abort outside transaction")
	}
	t := at
	ws := u.log.Set(core)
	for i, la := range ws.Lines {
		t = u.env.Caches.Store(core, la, ws.Vals[i][:], t)
	}
	u.log.Truncate(core)
	u.inTxn[core] = false
	u.env.StatsFor(core).Aborts++
	return t + u.env.BarrierCycles
}

// StoreNT implements txn.Backend.
func (u *Undo) StoreNT(core int, va uint64, data []byte, at engine.Cycles) engine.Cycles {
	pa, _, t := lineOf(u.env, core, va, at)
	return u.env.Caches.Store(core, pa, data, t)
}

// Crash implements txn.Backend.
func (u *Undo) Crash() {
	for c := range u.inTxn {
		u.inTxn[c] = false
		u.log.Truncate(c)
	}
}

// Recover implements txn.Backend: roll back every transaction without a
// durable commit record by applying its undo records in reverse. Every log
// is decoded before any line is written back.
func (u *Undo) Recover() error {
	u.env.Stats.Recoveries++
	logs, maxTID, err := u.log.Read()
	if err != nil {
		return err
	}
	for _, l := range logs {
		switch {
		case l.Committed:
			// In-place updates were flushed before the commit record; the
			// durable state is already the transaction's outcome.
			u.env.Stats.RecoveredTxns++
		case l.Interrupted():
			u.log.Rollback(l)
			u.env.Stats.RolledBackTxns++
		}
	}
	u.next = max(u.next, maxTID+1)
	u.log.Resume(maxTID)
	return nil
}

// Drain implements txn.Backend; UNDO has no background work.
func (u *Undo) Drain(at engine.Cycles) engine.Cycles { return at }
