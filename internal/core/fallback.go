package core

import (
	"math/bits"
	"sort"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/txn"
	"repro/internal/wal"
)

// The software fall-back path (§3.5): when a transaction's write set
// overflows the write-set buffer, SSP "aborts the transaction and reverts
// to a fall-back path ... which can implement any kind of unbounded
// software redo or undo logging". We implement unbounded software undo
// logging over the per-core log regions — and rather than re-executing the
// program, the transition converts the SSP-speculative state accumulated so
// far into logged in-place state, which is equivalent and keeps the
// programming model oblivious.
const (
	fbKindData   = 10 // payload: a txn line record
	fbKindCommit = 11
)

// transitionToFallback converts the open SSP transaction on core into a
// software-undo transaction: every speculative unit is undo-logged
// (committed image) and rewritten in place at its committed location, the
// current bits flip back, and the shadow lines are squashed. The log is
// per-core.
func (s *SSP) transitionToFallback(core int, at engine.Cycles) engine.Cycles {
	s.env.StatsFor(core).FallbackTxns++
	t := at
	tid := s.allocTID()
	s.fbTID[core] = tid
	log := s.fbLogs[core]

	ws := &s.ws[core]
	for i, vpn := range ws.vpns {
		meta := s.lookupMeta(vpn)
		bm := ws.bits[i]
		for m := bm; m != 0; m &= m - 1 {
			unit := bits.TrailingZeros64(m)
			cur := (meta.current >> uint(unit)) & 1
			begin, end := s.unitLines(unit)
			for li := begin; li < end; li++ {
				specLA := meta.lineAddr(li, cur)
				commLA := meta.lineAddr(li, cur^1)
				var spec, comm [memsim.LineBytes]byte
				t = s.env.Caches.Load(core, specLA, spec[:], t)
				t = s.env.Caches.Load(core, commLA, comm[:], t)
				s.fbOld[core][commLA] = comm
				var p [txn.LineRecordBytes]byte
				t = log.Append(wal.Record{TID: tid, Kind: fbKindData, Payload: txn.EncodeLine(&p, commLA, comm[:])}, t)
				t = log.Flush(t)
				s.env.StatsFor(core).UndoRecords++
				t = s.env.Caches.Store(core, commLA, spec[:], t)
				s.env.Caches.InvalidateLine(specLA)
			}
			meta.current ^= 1 << uint(unit)
			s.env.StatsFor(core).FlipBroadcasts++
		}
		// The page stays pinned against consolidation for the rest of the
		// fall-back transaction.
		s.fbPages[core][vpn] = struct{}{}
	}
	ws.reset()
	s.fallback[core] = true
	s.clock(t)
	return t
}

// fbStore is the fall-back store: undo-log the committed line (blocking),
// then update in place at the current location.
func (s *SSP) fbStore(core int, va uint64, data []byte, at engine.Cycles) engine.Cycles {
	meta, t := s.translate(core, va, at)
	off := int(va & (memsim.PageBytes - 1))
	lineIdx := off / memsim.LineBytes
	curBit := (meta.current >> uint(s.unitOf(lineIdx))) & 1
	pa := meta.lineAddr(lineIdx, curBit) + memsim.PAddr(off&(memsim.LineBytes-1))
	la := memsim.LineAddr(pa)
	if _, logged := s.fbOld[core][la]; !logged {
		var img [memsim.LineBytes]byte
		t = s.env.Caches.Load(core, la, img[:], t)
		s.fbOld[core][la] = img
		log := s.fbLogs[core]
		var p [txn.LineRecordBytes]byte
		t = log.Append(wal.Record{TID: s.fbTID[core], Kind: fbKindData, Payload: txn.EncodeLine(&p, la, img[:])}, t)
		t = log.Flush(t)
		s.env.StatsFor(core).UndoRecords++
	}
	if _, pinned := s.fbPages[core][meta.vpn]; !pinned {
		meta.coreRef++
		s.refTaken(meta)
		s.fbPages[core][meta.vpn] = struct{}{}
	}
	t = s.env.Caches.Store(core, pa, data, t)
	s.clock(t)
	return t
}

// fbCommit flushes the in-place write set, persists a commit record and
// truncates the fall-back log.
func (s *SSP) fbCommit(core int, at engine.Cycles) engine.Cycles {
	t := at
	// Same metadata barrier as the SSP commit path: in-place data must not
	// become durable in frames that pending journal records still remap.
	pages := make([]int, 0, len(s.fbPages[core]))
	for vpn := range s.fbPages[core] {
		pages = append(pages, vpn)
	}
	sort.Ints(pages)
	// A nil dest: the fall-back path writes data in place with no journal
	// record of its own, so the epoch leg may never skip an unsealed
	// lastUpdate shard.
	t = s.barrierFlush(core, pages, t, nil)
	fence := t
	for _, la := range s.sortedFBLines(core) {
		done, _ := s.env.Caches.Flush(core, la, t, stats.CatData)
		fence = engine.MaxCycles(fence, done)
	}
	t = fence
	log := s.fbLogs[core]
	t = log.Append(wal.Record{TID: s.fbTID[core], Kind: fbKindCommit}, t)
	t = log.Flush(t)
	s.env.ChargeCommitRecord(stats.CatUndoLog)
	log.Reset()
	s.finishFallback(core, t)
	return s.endTxn(core, t, true)
}

// fbAbort restores the logged images in cache and truncates the log.
func (s *SSP) fbAbort(core int, at engine.Cycles) engine.Cycles {
	t := at
	for _, la := range s.sortedFBLines(core) {
		img := s.fbOld[core][la]
		t = s.env.Caches.Store(core, la, img[:], t)
	}
	s.fbLogs[core].Reset()
	s.finishFallback(core, t)
	return s.endTxn(core, t, false)
}

// sortedFBLines returns the fall-back transaction's logged line addresses
// in order.
func (s *SSP) sortedFBLines(core int) []memsim.PAddr {
	out := make([]memsim.PAddr, 0, len(s.fbOld[core]))
	for la := range s.fbOld[core] {
		out = append(out, la)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// finishFallback unpins the transaction's pages and clears the fall-back
// log state; endTxn closes the transaction.
func (s *SSP) finishFallback(core int, at engine.Cycles) {
	pages := make([]int, 0, len(s.fbPages[core]))
	for vpn := range s.fbPages[core] {
		pages = append(pages, vpn)
	}
	sort.Ints(pages)
	for _, vpn := range pages {
		meta := s.lookupMeta(vpn)
		if meta.coreRef > 0 {
			meta.coreRef--
			s.refDropped(meta)
		}
		s.maybeConsolidate(meta, at)
	}
	clear(s.fbOld[core])
	clear(s.fbPages[core])
}
