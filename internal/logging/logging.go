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
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/txn"
)

// Log record kinds.
const (
	kindData   = 1 // payload: line address (8B) + 64B line image
	kindCommit = 2 // empty payload
)

const dataPayloadBytes = 8 + memsim.LineBytes

func encodeDataPayload(pa memsim.PAddr, line []byte) []byte {
	p := make([]byte, dataPayloadBytes)
	binary.LittleEndian.PutUint64(p, uint64(pa))
	copy(p[8:], line)
	return p
}

func decodeDataPayload(p []byte) (memsim.PAddr, []byte) {
	if len(p) != dataPayloadBytes {
		panic(fmt.Sprintf("logging: bad data payload length %d", len(p)))
	}
	return memsim.PAddr(binary.LittleEndian.Uint64(p)), p[8:]
}

// sortedLines returns the keys of a line-address set in address order, for
// deterministic commit processing.
func sortedLines(m map[memsim.PAddr][memsim.LineBytes]byte) []memsim.PAddr {
	out := make([]memsim.PAddr, 0, len(m))
	for la := range m {
		out = append(out, la)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedSet(m map[memsim.PAddr]struct{}) []memsim.PAddr {
	out := make([]memsim.PAddr, 0, len(m))
	for la := range m {
		out = append(out, la)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// lineOf returns the line base address for va translated through env.
func lineOf(env *txn.Env, core int, va uint64, at engine.Cycles) (memsim.PAddr, memsim.PAddr, engine.Cycles) {
	ppn, t := env.Translate(core, va, at)
	pa := ppn + memsim.PAddr(va&(memsim.PageBytes-1))
	return pa, memsim.LineAddr(pa), t
}
