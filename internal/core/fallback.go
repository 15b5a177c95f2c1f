package core

import (
	"math/bits"
	"slices"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
)

// The software fall-back path (§3.5): when a transaction's write set
// overflows the write-set buffer, SSP "aborts the transaction and reverts
// to a fall-back path ... which can implement any kind of unbounded
// software redo or undo logging". We implement unbounded software undo
// logging — UNDO-LOG's protocol, written through the same per-core log
// writer (txn.Logs, fbLog) and read back by the same reader — and rather
// than re-executing the program, the transition converts the
// SSP-speculative state accumulated so far into logged in-place state,
// which is equivalent and keeps the programming model oblivious. What stays
// here is the fall-back's own policy: the transition, TIDs from SSP's
// allocator, the pages pinned against consolidation (fbPages) and the
// metadata barrier before the in-place data persists.

// transitionToFallback converts the open SSP transaction on core into a
// software-undo transaction: every speculative unit is undo-logged
// (committed image) and rewritten in place at its committed location, the
// current bits flip back, and the shadow lines are squashed. The log is
// per-core.
func (s *SSP) transitionToFallback(core int, at engine.Cycles) engine.Cycles {
	s.env.StatsFor(core).FallbackTxns++
	t := at
	s.fbLog.Open(core, s.allocTID())
	fbws := s.fbLog.Set(core)

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
				pos, _ := fbws.Find(commLA)
				t = s.fbLog.LogUndo(core, pos, commLA, comm, comm[:], t)
				t = s.env.Caches.Store(core, commLA, spec[:], t)
				s.env.Caches.InvalidateLine(specLA)
			}
			meta.current ^= 1 << uint(unit)
			s.env.StatsFor(core).FlipBroadcasts++
		}
	}
	// The pages stay pinned against consolidation, by the references their
	// first stores took, for the rest of the fall-back transaction.
	s.fbPages[core] = append(s.fbPages[core][:0], ws.vpns...)
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
	if i, logged := s.fbLog.Set(core).Find(la); !logged {
		var img [memsim.LineBytes]byte
		t = s.env.Caches.Load(core, la, img[:], t)
		t = s.fbLog.LogUndo(core, i, la, img, img[:], t)
	}
	if i, pinned := slices.BinarySearch(s.fbPages[core], meta.vpn); !pinned {
		meta.coreRef++
		s.refTaken(meta)
		s.fbPages[core] = slices.Insert(s.fbPages[core], i, meta.vpn)
	}
	t = s.env.Caches.Store(core, pa, data, t)
	s.clock(t)
	return t
}

// fbCommit flushes the in-place write set, persists a commit record and
// truncates the fall-back log.
func (s *SSP) fbCommit(core int, at engine.Cycles) engine.Cycles {
	// Same metadata barrier as the SSP commit path: in-place data must not
	// become durable in frames that pending journal records still remap.
	// A nil dest: the fall-back path writes data in place with no journal
	// record of its own, so the epoch leg may never skip an unsealed
	// lastUpdate shard.
	t := s.barrierFlush(core, s.fbPages[core], at, nil)
	fence := t
	for _, la := range s.fbLog.Set(core).Lines {
		done, _ := s.env.Caches.Flush(core, la, t, stats.CatData)
		fence = engine.MaxCycles(fence, done)
	}
	t = s.fbLog.Commit(core, fence)
	s.finishFallback(core, t)
	return s.endTxn(core, t, true)
}

// fbAbort restores the logged images in cache and truncates the log.
func (s *SSP) fbAbort(core int, at engine.Cycles) engine.Cycles {
	t := at
	ws := s.fbLog.Set(core)
	for i, la := range ws.Lines {
		t = s.env.Caches.Store(core, la, ws.Vals[i][:], t)
	}
	s.fbLog.Truncate(core)
	s.finishFallback(core, t)
	return s.endTxn(core, t, false)
}

// finishFallback unpins the transaction's pages, in vpn order; the log's
// Commit or Truncate has closed the write set, and endTxn closes the
// transaction.
func (s *SSP) finishFallback(core int, at engine.Cycles) {
	for _, vpn := range s.fbPages[core] {
		meta := s.lookupMeta(vpn)
		if meta.coreRef > 0 {
			meta.coreRef--
			s.refDropped(meta)
		}
		s.maybeConsolidate(meta, at)
	}
	s.fbPages[core] = s.fbPages[core][:0]
}
