package core

import (
	"math/bits"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
)

// This file is the transaction pipeline: Begin/Store/Load/Commit/Abort and
// the commit sequence. Every commit runs the same five stages (§4.1.1
// "Transaction Commit"):
//
//	1. metadata barrier   — flush shards holding pending records that still
//	                        remap a write-set page's frames (barrierFlush)
//	2. data persistence   — clwb every write-set line, fence on the slowest
//	                        flush (flushData)
//	3. journal batch      — append the metadata records and harden them
//	4. publication        — install the new slot-shadow states
//	5. release            — drop core references, close the epoch
//
// Stages 3-4 have two legs: localCommit is the single-shard fast path (one
// record batch into the committing core's shard), globalCommit (global.go)
// the cross-shard two-phase protocol used by BeginGlobal transactions whose
// write set spans multiple journal shards. Both take start, the core's
// clock after the metadata barrier, and fence, the data-persistence fence
// completion. Work that carries no commit point — a global transaction's
// prepare records and their flushes — may overlap the data fence in
// simulated time (charged from start); a batch's commit point (the
// UpdateEnd-carrying flush, the coordinator End) must wait for fence.
//
// The durability mode is a parameter of stages 2-4, not a second pipeline:
// a relaxed commit (CommitRelaxed) issues its data flushes without waiting
// for them and hands its journal batch, fence and publications to the
// shard's open epoch (joinEpoch, journal.go) instead of flushing; the
// epoch's harden is its commit point.

// slotPub is one page's pending slot-shadow publication: the state
// snapshotted while journaling, installed once the batch is durable.
type slotPub struct {
	meta *pageMeta
	sid  int
	st   slotState
}

// Begin implements txn.Backend (ATOMIC_BEGIN: a full barrier).
func (s *SSP) Begin(core int, at engine.Cycles) engine.Cycles {
	if s.inTxn[core] {
		panic("core: nested transaction")
	}
	s.inTxn[core] = true
	s.clock(at)
	return at + s.env.BarrierCycles
}

// Store implements txn.Backend: the atomic-update protocol of Figure 4.
func (s *SSP) Store(core int, va uint64, data []byte, at engine.Cycles) engine.Cycles {
	if !s.inTxn[core] {
		panic("core: Store outside transaction")
	}
	if s.fallback[core] {
		return s.fbStore(core, va, data, at)
	}
	meta, t := s.translate(core, va, at)

	ws := &s.ws[core]
	wi, inWS := ws.find(meta.vpn)
	var bm uint64
	if inWS {
		bm = ws.bits[wi]
	} else if len(ws.vpns) >= s.cfg.WSBEntries {
		// Write-set buffer overflow: divert the whole transaction to the
		// software fall-back path (§3.5) and retry this store there.
		t = s.transitionToFallback(core, t)
		return s.fbStore(core, va, data, t)
	}

	off := int(va & (memsim.PageBytes - 1))
	lineIdx := off / memsim.LineBytes
	unit := s.unitOf(lineIdx)
	bit := uint64(1) << uint(unit)

	firstTouch := bm&bit == 0
	if firstTouch {
		// First write to this unit in the transaction: remap every line of
		// the unit to the "other" page, flip the current bit, broadcast.
		begin, end := s.unitLines(unit)
		cur := (meta.current >> uint(unit)) & 1
		for li := begin; li < end; li++ {
			from := meta.lineAddr(li, cur)
			to := meta.lineAddr(li, cur^1)
			t = s.env.Caches.Retag(core, from, to, t)
		}
		meta.current ^= bit
		s.env.StatsFor(core).FlipBroadcasts++
		if s.cfg.FlipViaShootdown {
			t += s.cfg.ShootdownCycles
		} else {
			t += s.cfg.FlipCycles
		}
		if inWS {
			ws.bits[wi] = bm | bit
		} else {
			meta.coreRef++
			s.refTaken(meta)
			ws.insert(wi, meta.vpn, bit)
		}
	}
	curBit := (meta.current >> uint(unit)) & 1
	target := meta.lineAddr(lineIdx, curBit) + memsim.PAddr(off&(memsim.LineBytes-1))
	t = s.env.Caches.Store(core, target, data, t)
	s.clock(t)
	return t
}

// Load implements txn.Backend: address translation selects P0 or P1 per
// line according to the current bitmap (§4.1.1 "Memory Read and Write").
func (s *SSP) Load(core int, va uint64, buf []byte, at engine.Cycles) engine.Cycles {
	meta, t := s.translate(core, va, at)
	off := int(va & (memsim.PageBytes - 1))
	lineIdx := off / memsim.LineBytes
	unit := s.unitOf(lineIdx)
	curBit := (meta.current >> uint(unit)) & 1
	pa := meta.lineAddr(lineIdx, curBit) + memsim.PAddr(off&(memsim.LineBytes-1))
	t = s.env.Caches.Load(core, pa, buf, t)
	s.clock(t)
	return t
}

// Commit implements txn.Backend: the five-stage pipeline documented at the
// top of this file, with the journal leg selected inside commit.
func (s *SSP) Commit(core int, at engine.Cycles) engine.Cycles {
	return s.commit(core, at, false)
}

// CommitRelaxed closes the open section exactly like Commit — on return the
// section is ACKNOWLEDGED and its writes are visible — but defers its
// durability point: the section becomes durable within
// Config.DurabilityEpoch cycles, or earlier at a Sync, a Drain, or any
// synchronous flush of its metadata shard, and a crash before that point
// loses it ATOMICALLY — entirely present or entirely absent afterwards,
// never torn, and never reordered against a later durable section on the
// same shard. The logging designs have no relaxed mode: the machine
// commits them synchronously.
//
// It is the same pipeline as Commit in relaxed mode: stage 1 (the metadata
// barrier, extended with the epoch leg — see barrierFlush) still runs
// synchronously; stage 2 issues the data flushes without fencing on them;
// stages 3-4 buffer the journal batch into the shard's open epoch and defer
// publication until the epoch hardens, acknowledging as soon as the batch
// is buffered. With DurabilityEpoch == 0 this is Commit exactly.
func (s *SSP) CommitRelaxed(core int, at engine.Cycles) engine.Cycles {
	return s.commit(core, at, s.cfg.DurabilityEpoch > 0)
}

func (s *SSP) commit(core int, at engine.Cycles, relaxed bool) engine.Cycles {
	if !s.inTxn[core] {
		panic("core: Commit outside transaction")
	}
	if s.fallback[core] {
		return s.fbCommit(core, at)
	}
	pages := s.ws[core].vpns

	// Select the journal leg: the single-shard fast path unless this is a
	// global transaction whose write set actually spans more than one
	// journal shard (a global transaction confined to one shard — or any
	// transaction on a single-shard machine — degrades to the fast path, so
	// JournalShards=1 never pays an extra record). Resolved BEFORE the
	// metadata barrier because the barrier's epoch leg may skip a page's
	// unsealed lastUpdate shard only when this commit's own record for the
	// page goes to the same shard — dest must see the destination exactly
	// as the dispatch does.
	var globalShards []int
	if s.globalTxn[core] && s.sharded() {
		if shards := s.participantShards(core, pages); len(shards) > 1 {
			globalShards = shards
		}
	}
	dest := func(meta *pageMeta) int {
		if globalShards != nil {
			return s.shardOfSlot(meta.slot)
		}
		return s.shardFor(core)
	}

	// Stage 1: metadata barrier. Stage 2: data persistence — a relaxed
	// commit issues the clwbs without fencing on them; the fence moves into
	// the shard epoch, paid at hardening. Stages 3-4: journal batch and
	// publication, deferred to the epoch's harden in relaxed mode (an empty
	// write set has nothing to journal and commits synchronously).
	relaxed = relaxed && len(pages) > 0
	start := s.barrierFlush(core, pages, at, dest)
	t := s.flushData(core, pages, start, relaxed)
	if globalShards != nil {
		t = s.globalCommit(core, globalShards, pages, start, t, relaxed)
	} else if len(pages) > 0 {
		t = s.localCommit(core, pages, start, t, relaxed)
	}

	// Stage 5: release core references; pages that became inactive
	// consolidate in the background (off the critical path) — inline in
	// serial mode, batched per epoch in parallel mode.
	for _, vpn := range pages {
		meta := s.lookupMeta(vpn)
		meta.coreRef--
		s.refDropped(meta)
		s.maybeConsolidate(meta, t)
	}
	if !s.parallel {
		s.maybeCheckpointAll(t)
	}
	end := s.endTxn(core, t, true)
	s.clock(end)
	return end
}

// endTxn is the closing step every transaction shares — commit or abort,
// fast path or fall-back: clear the core's transaction state, count the
// outcome, tick the parallel-mode consolidation epoch and raise the clock
// to t. It returns t plus the closing barrier.
func (s *SSP) endTxn(core int, t engine.Cycles, committed bool) engine.Cycles {
	s.ws[core].reset()
	s.inTxn[core] = false
	s.globalTxn[core] = false
	s.fallback[core] = false
	if committed {
		s.env.StatsFor(core).Commits++
	} else {
		s.env.StatsFor(core).Aborts++
	}
	if s.parallel {
		s.tickEpoch(t)
	}
	s.clock(t)
	return t + s.env.BarrierCycles
}

// flushData is stage 2: clwb every write-set line; the fence is the slowest
// flush (bank-level parallelism applies). A synchronous commit waits for
// it, surfaced as Stats.CommitBarrierWait — the commit-critical-path cycles
// the core spent blocked on its data-flush barrier. A relaxed commit does
// not wait: the fence goes to the shard epoch (hardening pays it instead of
// the committer) and into each page's flushDone high-water. Either fence
// covers a page's flushDone — a relaxed commit's issued-but-unfenced
// flushes may still be in flight — so a fence over the page over-waits
// rather than under-waits.
func (s *SSP) flushData(core int, pages []int, at engine.Cycles, relaxed bool) engine.Cycles {
	fence := at
	for _, vpn := range pages {
		meta := s.lookupMeta(vpn)
		bm := s.ws[core].bitmap(vpn)
		fence = engine.MaxCycles(fence, meta.flushDone)
		fl := meta.flushDone
		for m := bm; m != 0; m &= m - 1 {
			unit := bits.TrailingZeros64(m)
			cur := (meta.current >> uint(unit)) & 1
			begin, end := s.unitLines(unit)
			for li := begin; li < end; li++ {
				done, _ := s.env.Caches.Flush(core, meta.lineAddr(li, cur), at, stats.CatData)
				fence = engine.MaxCycles(fence, done)
				fl = engine.MaxCycles(fl, done)
			}
		}
		if relaxed {
			meta.flushDone = fl
		}
	}
	if !relaxed {
		s.env.StatsFor(core).CommitBarrierWait += uint64(fence - at)
	}
	return fence
}

// maybeConsolidate consolidates a page that has just become inactive — no
// core or TLB reference left and committed lines on its shadow frame —
// inline in serial mode, queued for the epoch batch in parallel mode (see
// consolidate.go). LazyConsolidation leaves it to slot eviction.
func (s *SSP) maybeConsolidate(meta *pageMeta, at engine.Cycles) {
	if meta.coreRef != 0 || meta.tlbRef != 0 || meta.committed == 0 || s.cfg.LazyConsolidation {
		return
	}
	if s.parallel {
		s.queueConsolidation(meta.vpn)
	} else {
		s.consolidate(meta, at)
	}
}

// publishSlots is stage 4: install the new slot-shadow states now that their
// journal records are durable. A later checkpoint of any shard writes
// slotShadow to the persistent slot array, and must never persist state whose
// journal records a crash could still lose. The version guard keeps a commit
// from clobbering a newer state another core published for a shared page
// meanwhile.
func (s *SSP) publishSlots(pubs []slotPub) {
	for _, p := range pubs {
		if p.st.ver > s.slotShadow[p.sid].ver {
			s.slotShadow[p.sid] = p.st
		}
	}
}

// snapshotPage commits page vpn's speculative bits into its committed
// bitmap and snapshots the slot state (with a fresh update version) — the
// per-page half of stage 3, shared by both protocols.
//
// Note on shared pages: if another core's transaction on this page
// committed its bits just before us but its shard flush is still in flight
// in simulated time, our snapshot carries those bits with a newer version.
// That is safe under the machine's crash model — a commit runs to
// completion before any other core executes, so power failure never lands
// between another core's snapshot and its flush — but a hardware
// realisation with per-controller journals would need a cross-shard
// ordering fence here.
func (s *SSP) snapshotPage(core int, vpn int) slotPub {
	meta := s.lookupMeta(vpn)
	bm := s.ws[core].bitmap(vpn)
	meta.committed = (meta.committed &^ bm) | (meta.current & bm)
	st := slotState{vpn: vpn, ppn0: meta.ppn0, ppn1: meta.ppn1, committed: meta.committed, ver: s.allocVer()}
	sid := meta.slot
	return slotPub{meta: meta, sid: sid, st: st}
}

// localCommit is the single-shard fast path: one record batch (recUpdate…
// recUpdateEnd) appended to the committing core's shard. Synchronously, a
// shard flush then makes the transaction durable and the slot states are
// published before any checkpoint can truncate the records; the batch
// cannot overlap the data fence — its flush hardens the UpdateEnd seal, the
// commit point — so everything runs from fence. A relaxed commit appends
// from start and returns at the buffered-append completion: the batch joins
// the shard's open epoch (joinEpoch), whose harden installs its slot states.
func (s *SSP) localCommit(core int, pages []int, start, fence engine.Cycles, relaxed bool) engine.Cycles {
	si := s.shardFor(core)
	if !relaxed {
		start = fence
	}
	pubs, t := s.appendBatch(si, core, pages, s.allocTID(), start)
	if relaxed {
		t = s.joinEpoch(si, core, start, fence, pubs, nil, t)
	} else {
		t = s.flushShard(si, core, t)
		s.publishSlots(pubs)
	}
	if s.parallel {
		// Serial mode checkpoints after stage 5's consolidations (Commit's
		// tail); parallel mode checkpoints here. Only shard si is
		// checkpointed, so one hot core cannot force global checkpoints.
		s.maybeCheckpointShard(si, t)
	}
	return t
}

// barrierFlush persists every journal shard holding a pending
// consolidation/release record of a write-set page (the metadata barrier of
// consolidate.go): durably-flushed data must never land in a frame that
// undrained journal records still remap. pages must be sorted so serial
// runs flush shards in a deterministic order.
//
// The shard flushes are independent rings on independent NVRAM regions, so
// they are issued concurrently in simulated time: each from `at`, the
// barrier charging the max — not the sum — of their completions (the same
// simulated-hardware rule as the cross-shard prepare fan-out in global.go).
// A shard already flushed for an earlier page is skipped — that flush
// drained everything pending, which covers every mark taken before this
// commit began (the pages' barrier marks are frozen while core-referenced).
//
// In relaxed-durability mode (Config.DurabilityEpoch > 0) the barrier
// grows a second, epoch leg: each page's most recent update/prepare record
// (pageMeta.lastUpdate) must be durable before a new record carries the
// page's CUMULATIVE committed bitmap into a different shard — otherwise a
// crash could seal the cumulative state while dropping the open epoch that
// produced it, reviving the earlier transaction on this page alone and
// tearing it across its other pages. dest names the shard this commit's
// own record for the page will go to; a lastUpdate in the SAME shard needs
// no barrier (ring-prefix order seals them together or drops them
// together). A nil dest never skips (the fall-back path, whose in-place
// data flushes have no journal destination at all).
func (s *SSP) barrierFlush(core int, pages []int, at engine.Cycles, dest func(meta *pageMeta) int) engine.Cycles {
	fence := at
	var flushed [stats.MaxJournalShards]bool
	for _, vpn := range pages {
		meta := s.lookupMeta(vpn)
		ref := meta.barrier
		upd := meta.lastUpdate
		if !flushed[ref.shard] {
			if !s.journals[ref.shard].Durable(ref.mark) {
				if done := s.flushShard(ref.shard, core, at); done > fence {
					fence = done
				}
				flushed[ref.shard] = true
			}
		}
		if s.cfg.DurabilityEpoch <= 0 || flushed[upd.shard] {
			continue
		}
		if dest != nil && dest(meta) == upd.shard {
			continue
		}
		if !s.journals[upd.shard].Durable(upd.mark) {
			if done := s.hardenShard(upd.shard, core, at); done > fence {
				fence = done
			}
			flushed[upd.shard] = true
		}
	}
	return fence
}

// Abort implements txn.Backend: squash speculative lines and flip the
// current bits back; committed data was never touched.
func (s *SSP) Abort(core int, at engine.Cycles) engine.Cycles {
	if !s.inTxn[core] {
		panic("core: Abort outside transaction")
	}
	if s.fallback[core] {
		return s.fbAbort(core, at)
	}
	ws := &s.ws[core]
	for i, vpn := range ws.vpns {
		meta := s.lookupMeta(vpn)
		bm := ws.bits[i]
		for m := bm; m != 0; m &= m - 1 {
			unit := bits.TrailingZeros64(m)
			cur := (meta.current >> uint(unit)) & 1
			begin, end := s.unitLines(unit)
			for li := begin; li < end; li++ {
				s.env.Caches.InvalidateLine(meta.lineAddr(li, cur))
			}
			meta.current ^= 1 << uint(unit)
			s.env.StatsFor(core).FlipBroadcasts++
		}
		meta.coreRef--
		s.refDropped(meta)
		s.maybeConsolidate(meta, at)
	}
	return s.endTxn(core, at, false)
}

// StoreNT implements txn.Backend: a plain store to the current location;
// not failure-atomic (a later transactional remap of the line write-backs
// the dirty data first — cachesim.Retag's precondition).
func (s *SSP) StoreNT(core int, va uint64, data []byte, at engine.Cycles) engine.Cycles {
	meta, t := s.translate(core, va, at)
	off := int(va & (memsim.PageBytes - 1))
	lineIdx := off / memsim.LineBytes
	curBit := (meta.current >> uint(s.unitOf(lineIdx))) & 1
	pa := meta.lineAddr(lineIdx, curBit) + memsim.PAddr(off&(memsim.LineBytes-1))
	t = s.env.Caches.Store(core, pa, data, t)
	s.clock(t)
	return t
}

// Drain implements txn.Backend: any batched consolidation work runs to
// completion (serial mode has none pending — consolidation and
// checkpointing run synchronously in simulated time), then — in
// relaxed-durability mode — every shard's open epoch hardens, so a
// quiescent machine is always fully durable (after the consolidation
// drain, whose records the hardening must cover).
func (s *SSP) Drain(at engine.Cycles) engine.Cycles {
	t := engine.MaxCycles(at, s.now)
	if s.parallel {
		s.drainConsolQueue(t)
		t = engine.MaxCycles(t, s.now)
	}
	if s.cfg.DurabilityEpoch > 0 {
		t = s.hardenAllShards(-1, t)
		s.clock(t)
	}
	return t
}
