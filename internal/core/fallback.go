package core

import (
	"encoding/binary"
	"sort"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
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
	fbKindData   = 10
	fbKindCommit = 11
)

func encodeFBPayload(pa memsim.PAddr, line []byte) []byte {
	p := make([]byte, 8+memsim.LineBytes)
	binary.LittleEndian.PutUint64(p, uint64(pa))
	copy(p[8:], line)
	return p
}

func decodeFBPayload(p []byte) (memsim.PAddr, []byte) {
	return memsim.PAddr(binary.LittleEndian.Uint64(p)), p[8:]
}

// transitionToFallback converts the open SSP transaction on core into a
// software-undo transaction: every speculative unit is undo-logged
// (committed image) and rewritten in place at its committed location, the
// current bits flip back, and the shadow lines are squashed. Called with no
// page locks held; the TID comes from the structMu-guarded allocator, the
// log itself is per-core.
func (s *SSP) transitionToFallback(core int, at engine.Cycles) engine.Cycles {
	s.env.StatsFor(core).FallbackTxns++
	t := at
	tid := s.allocTID()
	s.fbTID[core] = tid
	log := s.fbLogs[core]

	for _, vpn := range s.sortedWS(core) {
		meta := s.lookupMeta(vpn)
		bm := s.wsb[core][vpn]
		s.lockMeta(meta)
		for unit := 0; unit < memsim.LinesPerPage/s.cfg.SubPageLines; unit++ {
			if bm&(1<<uint(unit)) == 0 {
				continue
			}
			cur := (meta.current >> uint(unit)) & 1
			begin, end := s.unitLines(unit)
			for li := begin; li < end; li++ {
				specLA := meta.lineAddr(li, cur)
				commLA := meta.lineAddr(li, cur^1)
				var spec, comm [memsim.LineBytes]byte
				t = s.env.Caches.Load(core, specLA, spec[:], t)
				t = s.env.Caches.Load(core, commLA, comm[:], t)
				s.fbOld[core][commLA] = comm
				t = log.Append(wal.Record{TID: tid, Kind: fbKindData, Payload: encodeFBPayload(commLA, comm[:])}, t)
				t = log.Flush(t)
				s.env.StatsFor(core).UndoRecords++
				t = s.env.Caches.Store(core, commLA, spec[:], t)
				s.env.Caches.InvalidateLine(specLA)
			}
			meta.current ^= 1 << uint(unit)
			s.env.StatsFor(core).FlipBroadcasts++
		}
		s.unlockMeta(meta)
		// The page stays pinned against consolidation for the rest of the
		// fall-back transaction.
		s.fbPages[core][vpn] = struct{}{}
	}
	clear(s.wsb[core])
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
	s.lockMeta(meta)
	curBit := (meta.current >> uint(s.unitOf(lineIdx))) & 1
	pa := meta.lineAddr(lineIdx, curBit) + memsim.PAddr(off&(memsim.LineBytes-1))
	la := memsim.LineAddr(pa)
	if _, logged := s.fbOld[core][la]; !logged {
		var img [memsim.LineBytes]byte
		t = s.env.Caches.Load(core, la, img[:], t)
		s.fbOld[core][la] = img
		log := s.fbLogs[core]
		t = log.Append(wal.Record{TID: s.fbTID[core], Kind: fbKindData, Payload: encodeFBPayload(la, img[:])}, t)
		t = log.Flush(t)
		s.env.StatsFor(core).UndoRecords++
	}
	if _, pinned := s.fbPages[core][meta.vpn]; !pinned {
		meta.coreRef++
		s.refTaken(meta)
		s.fbPages[core][meta.vpn] = struct{}{}
	}
	t = s.env.Caches.Store(core, pa, data, t)
	s.unlockMeta(meta)
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
	s.env.StatsFor(core).NVRAMWriteBytes[stats.CatCommitRecord] += wal.HeaderBytes
	s.env.StatsFor(core).NVRAMWriteBytes[stats.CatUndoLog] -= wal.HeaderBytes
	log.Reset()
	s.finishFallback(core, t)
	s.env.StatsFor(core).Commits++
	if s.parallel {
		s.tickEpoch(t)
	}
	s.clock(t)
	return t + s.env.BarrierCycles
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
	s.env.StatsFor(core).Aborts++
	if s.parallel {
		s.tickEpoch(t)
	}
	s.clock(t)
	return t + s.env.BarrierCycles
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

// finishFallback unpins the transaction's pages and clears per-core state.
func (s *SSP) finishFallback(core int, at engine.Cycles) {
	pages := make([]int, 0, len(s.fbPages[core]))
	for vpn := range s.fbPages[core] {
		pages = append(pages, vpn)
	}
	sort.Ints(pages)
	for _, vpn := range pages {
		meta := s.lookupMeta(vpn)
		s.lockMeta(meta)
		if meta.coreRef > 0 {
			meta.coreRef--
			s.refDropped(meta)
		}
		inactive := meta.coreRef == 0 && meta.tlbRef == 0 && meta.committed != 0 && !s.cfg.LazyConsolidation
		s.unlockMeta(meta)
		if !inactive {
			continue
		}
		if s.parallel {
			s.queueConsolidation(vpn)
		} else {
			s.consolidate(meta, at)
		}
	}
	clear(s.fbOld[core])
	clear(s.fbPages[core])
	s.fallback[core] = false
	s.inTxn[core] = false
	s.globalTxn[core] = false
}
