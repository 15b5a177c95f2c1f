// Package logging implements the paper's two baseline failure-atomicity
// designs (§5.1 "Evaluated Designs"):
//
//   - UNDO-LOG: a naive hardware undo logging mechanism. The first atomic
//     store to each cache line writes the line's old value to the per-core
//     log and blocks until the record is persistent; commit flushes the
//     write set, persists a commit record and truncates the log.
//
//   - REDO-LOG: DHTM-style hardware redo logging. Stores run unblocked into
//     the (volatile) cache hierarchy; a log buffer coalesces one record per
//     modified line ("predicts the final state"). Commit persists the log
//     and a commit record — that much stays on the critical path — while
//     the in-place data write-back is pushed to a bounded background queue
//     that overlaps the code after the transaction. A full queue delays the
//     next commit, DHTM's residual critical-path cost.
//
// Both designs write the per-core NVRAM logs of vm.Layout through
// txn.Logs, which SSP's software fall-back path shares.
package logging

import (
	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/txn"
)

// lineOf returns the line base address for va translated through env.
func lineOf(env *txn.Env, core int, va uint64, at engine.Cycles) (memsim.PAddr, memsim.PAddr, engine.Cycles) {
	ppn, t := env.Translate(core, va, at)
	pa := ppn + memsim.PAddr(va&(memsim.PageBytes-1))
	return pa, memsim.LineAddr(pa), t
}
