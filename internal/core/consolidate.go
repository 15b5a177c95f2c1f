package core

import (
	"math/bits"
	"sort"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
)

// consolidate merges a page's two physical frames into one (§3.4): the side
// holding fewer committed lines is copied into the other, the flip is
// journaled atomically, and the page table is repointed at the survivor.
// It runs off the critical path — NVRAM bank time is charged from `at`, but
// no core waits on it.
func (s *SSP) consolidate(meta *pageMeta, at engine.Cycles) {
	// Relaxed-durability guard: the flip record below carries the page's
	// CUMULATIVE state — frames holding every prior transaction's effects —
	// into the slot's own shard. If the page's most recent update record is
	// still in ANOTHER shard's open epoch, the flip could seal while that
	// epoch drops, and recovery would revive the dropped transaction on
	// this page alone (its bytes are baked into the survivor frame),
	// tearing it across its other pages. Same-shard updates are safe: the
	// ring prefix seals them with the flip or drops them both.
	at = s.hardenPageUpdates(meta, s.shardOfSlot(meta.slot), at)
	if meta.tlbRef != 0 || meta.coreRef != 0 {
		panic("core: consolidating an active page")
	}
	if meta.current != meta.committed {
		panic("core: current != committed outside transactions")
	}
	if meta.committed == 0 {
		return // already consolidated
	}
	s.env.Stats.Consolidations++
	t := at

	units := memsim.LinesPerPage / s.cfg.SubPageLines
	ones := bits.OnesCount64(meta.committed)
	var survivor, spare memsim.PAddr
	var copyBit uint64 // units whose committed copy must move
	if ones*2 <= units {
		// Minority on P1: copy those units into P0.
		survivor, spare = meta.ppn0, meta.ppn1
		copyBit = 1
	} else {
		survivor, spare = meta.ppn1, meta.ppn0
		copyBit = 0
	}
	var buf [memsim.LineBytes]byte
	for unit := 0; unit < units; unit++ {
		bit := (meta.committed >> uint(unit)) & 1
		if bit != copyBit {
			continue // already resident in the surviving frame
		}
		begin, end := s.unitLines(unit)
		for li := begin; li < end; li++ {
			src := meta.lineAddr(li, bit)
			dst := survivor + memsim.PAddr(li*memsim.LineBytes)
			// Committed lines are clean (flushed at their commit); only a
			// non-transactional store can leave the source dirty.
			if s.env.Caches.DirtyAnywhere(src) {
				t, _ = s.env.Caches.Flush(0, src, t, stats.CatData)
			}
			t = s.env.Mem.ReadLine(src, buf[:], t)
			t = s.env.Mem.WriteLine(dst, buf[:], t, stats.CatConsolidation)
			// Cached copies of the destination hold a dead version; the
			// copy engine updates them in place (cache injection), so the
			// page's next access after refill hits warm lines.
			s.env.Caches.InjectLine(dst, buf[:])
			s.env.Stats.ConsolidatedLines++
		}
	}

	// Journal the atomic flip: the slot now maps the page entirely to the
	// survivor, with the other frame as the slot's spare. The record is
	// NOT flushed here: until it drains, a crash simply reverts to the
	// pre-consolidation state (both frames untouched at committed
	// locations, recovery repairs the PTE). The page's barrier mark makes
	// the next commit on this page flush first, so durably-flushed
	// speculative data can never land in a frame the old metadata still
	// references (§3.4, off-critical-path consolidation).
	st := slotState{vpn: meta.vpn, ppn0: survivor, ppn1: spare, committed: 0, ver: s.allocVer()}
	sid := meta.slot

	si := s.shardOfSlot(sid)
	tid := s.allocTID()
	t = s.appendSlotRecord(si, -1, tid, recConsolidate, sid, st, t)
	s.slotShadow[sid] = st
	meta.barrier = journalRef{shard: si, mark: s.journals[si].MarkHere()}
	meta.ppn0, meta.ppn1 = survivor, spare
	meta.committed, meta.current = 0, 0
	s.maybeCheckpointShard(si, t)

	// Durable page-table repoint. Safe in either order with the journal
	// record: recovery trusts the journal-replayed slot state and repairs
	// the PTE to match.
	t = s.env.PT.Set(meta.vpn, survivor, t)
	s.clock(t)
}

// ---------------------------------------------------------------------------
// Parallel-mode epoch batching. Commit-time consolidation would otherwise
// charge a journal record to every commit that leaves a page inactive;
// instead,
// pages that become inactive are queued, and one core drains the whole
// batch every epochCommits commits. The deferral window is bounded, and a
// page re-referenced before its batch runs simply skips consolidation —
// exactly the LazyConsolidation semantics the paper sketches in §3.4, with
// an epoch bound instead of a memory-pressure trigger.

// epochCommits is the parallel-mode consolidation epoch length: pages whose
// consolidation was deferred are drained in one batch every epochCommits
// commits (per backend, not per core). Serial runs consolidate inline.
const epochCommits = 32

// queueConsolidation records that vpn became inactive and is a
// consolidation candidate.
func (s *SSP) queueConsolidation(vpn int) {
	s.consolQ = append(s.consolQ, vpn)
}

// tickEpoch advances the commit-epoch counter and drains the batch when the
// epoch closes. Called at the end of every parallel-mode transaction —
// commit or abort, fast path or fallback — so the deferral window stays
// bounded even in fallback-heavy runs.
func (s *SSP) tickEpoch(at engine.Cycles) {
	s.epochOps++
	if s.epochOps >= epochCommits && len(s.consolQ) > 0 {
		s.epochOps = 0
		s.drainConsolQueue(at)
	}
}

// drainConsolQueue consolidates every still-quiescent queued page in one
// batch. The batch is sorted and deduplicated, so the drain order is a
// function of the queue contents, not of which cores queued them.
func (s *SSP) drainConsolQueue(at engine.Cycles) {
	batch := s.consolQ
	s.consolQ = nil
	if len(batch) == 0 {
		return
	}
	sort.Ints(batch)
	t := engine.MaxCycles(at, s.now)
	prev := -1
	for _, vpn := range batch {
		if vpn == prev {
			continue
		}
		prev = vpn
		meta := s.lookupMeta(vpn)
		if meta == nil {
			continue // released in the meantime
		}
		quiescent := meta.tlbRef == 0 && meta.coreRef == 0 && meta.committed != 0
		if !quiescent {
			continue // re-referenced; a later epoch will requeue it
		}
		s.consolidate(meta, t)
		t = engine.MaxCycles(t, s.now)
	}
}
