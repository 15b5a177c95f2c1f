package logging

import (
	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Undo is the UNDO-LOG baseline: hardware undo logging with in-place data
// updates. Each first store to a line persists the old value before the
// store may proceed (the store "will be blocked until the log entry reaches
// persistent memory"); repeated updates to a logged line are free. All log
// state is per-core.
type Undo struct {
	env  *txn.Env
	logs []*wal.Stream
	next uint32

	inTxn []bool
	tid   []uint32
	// old holds the pre-transaction image of every logged line, both the
	// volatile dedup set and the data needed by Abort.
	old []writeSet[[memsim.LineBytes]byte]
}

// NewUndo builds the baseline over env.
func NewUndo(env *txn.Env) *Undo {
	u := &Undo{env: env}
	u.next = 1
	for c := 0; c < env.Cores(); c++ {
		u.logs = append(u.logs, wal.NewStream(env.Mem, env.Layout.LogBase[c], env.Layout.Cfg.LogBytes, stats.CatUndoLog))
	}
	u.old = make([]writeSet[[memsim.LineBytes]byte], env.Cores())
	u.inTxn = make([]bool, env.Cores())
	u.tid = make([]uint32, env.Cores())
	return u
}

// Name implements txn.Backend.
func (u *Undo) Name() string { return "UNDO-LOG" }

// Begin implements txn.Backend.
func (u *Undo) Begin(core int, at engine.Cycles) engine.Cycles {
	if u.inTxn[core] {
		panic("undo: nested transaction")
	}
	u.inTxn[core] = true
	u.tid[core] = u.next
	u.next++
	return at + u.env.BarrierCycles
}

// Store implements txn.Backend: log-then-update, blocking on the log write.
func (u *Undo) Store(core int, va uint64, data []byte, at engine.Cycles) engine.Cycles {
	if !u.inTxn[core] {
		panic("undo: Store outside transaction")
	}
	pa, la, t := lineOf(u.env, core, va, at)
	if i, logged := u.old[core].find(la); !logged {
		// First store to this line: read the old image and persist an undo
		// record before the store proceeds.
		var img [memsim.LineBytes]byte
		t = u.env.Caches.Load(core, la, img[:], t)
		u.old[core].insert(i, la, img)
		log := u.logs[core]
		var p [txn.LineRecordBytes]byte
		t = log.Append(wal.Record{TID: u.tid[core], Kind: kindData, Payload: txn.EncodeLine(&p, la, img[:])}, t)
		t = log.Flush(t) // the blocking persist
		u.env.StatsFor(core).UndoRecords++
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
	t := at
	fence := t
	for _, la := range u.old[core].lines {
		done, _ := u.env.Caches.Flush(core, la, t, stats.CatData)
		fence = engine.MaxCycles(fence, done)
	}
	// The write-set flush fence is UNDO-LOG's commit-critical persistence
	// wait — the same quantity SSP surfaces, so the commit-path experiment
	// compares designs on one counter.
	u.env.StatsFor(core).CommitBarrierWait += uint64(fence - t)
	t = fence
	log := u.logs[core]
	t = log.Append(wal.Record{TID: u.tid[core], Kind: kindCommit}, t)
	t = log.Flush(t)
	u.env.ChargeCommitRecord(stats.CatUndoLog)
	log.Reset()
	u.old[core].reset()
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
	ws := &u.old[core]
	for i, la := range ws.lines {
		t = u.env.Caches.Store(core, la, ws.vals[i][:], t)
	}
	u.logs[core].Reset()
	ws.reset()
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
	for c := range u.old {
		u.old[c].reset()
		u.inTxn[c] = false
		u.logs[c].Reset()
	}
}

// Recover implements txn.Backend: roll back every transaction without a
// durable commit record by applying its undo records in reverse. Every log
// is decoded before any line is written back.
func (u *Undo) Recover() error {
	u.env.Stats.Recoveries++
	logs, maxTID, err := u.env.ReadLogs(kindData, kindCommit)
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
			u.env.Rollback(l)
			u.env.Stats.RolledBackTxns++
		}
	}
	resume(u.logs, &u.next, maxTID)
	return nil
}

// Drain implements txn.Backend; UNDO has no background work.
func (u *Undo) Drain(at engine.Cycles) engine.Cycles { return at }
