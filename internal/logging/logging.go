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
// Both designs share the per-core NVRAM log regions of vm.Layout and the
// checksummed record streams of internal/wal.
package logging

import (
	"slices"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/txn"
	"repro/internal/wal"
)

// Log record kinds.
const (
	kindData   = 1 // payload: a txn line record
	kindCommit = 2 // empty payload
)

// writeSet is one core's write set: the lines its open transaction stored
// to, in ascending address order, each with a value (UNDO-LOG: the line's
// pre-transaction image; REDO-LOG: none). Commit and abort walk it in that
// order, so their simulated work does not depend on host state. A lookup is
// a binary search and reset keeps the capacity, so a warm write set
// allocates nothing, across transactions and crashes alike.
type writeSet[V any] struct {
	lines []memsim.PAddr
	vals  []V
}

// find returns la's position, or the position it would be inserted at, and
// whether it is present.
func (w *writeSet[V]) find(la memsim.PAddr) (int, bool) { return slices.BinarySearch(w.lines, la) }

// writeSetMin is the room a write set's first insert makes: more lines
// than most transactions write, so a fresh machine's first transactions do
// not grow it line by line.
const writeSetMin = 8

// insert adds la with value v at position i, as returned by find.
func (w *writeSet[V]) insert(i int, la memsim.PAddr, v V) {
	if len(w.lines) == cap(w.lines) {
		w.lines = slices.Grow(w.lines, max(writeSetMin, len(w.lines)))
		w.vals = slices.Grow(w.vals, max(writeSetMin, len(w.vals)))
	}
	w.lines = slices.Insert(w.lines, i, la)
	w.vals = slices.Insert(w.vals, i, v)
}

func (w *writeSet[V]) reset() { w.lines, w.vals = w.lines[:0], w.vals[:0] }

// resume sets a recovered backend's next TID past maxTID, the highest one
// its logs hold, and raises every log's TID floor to it.
func resume(logs []*wal.Stream, next *uint32, maxTID uint32) {
	*next = max(*next, maxTID+1)
	for _, l := range logs {
		l.SetTIDFloor(maxTID)
	}
}

// lineOf returns the line base address for va translated through env.
func lineOf(env *txn.Env, core int, va uint64, at engine.Cycles) (memsim.PAddr, memsim.PAddr, engine.Cycles) {
	ppn, t := env.Translate(core, va, at)
	pa := ppn + memsim.PAddr(va&(memsim.PageBytes-1))
	return pa, memsim.LineAddr(pa), t
}
