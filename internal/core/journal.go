package core

import (
	"sort"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/wal"
)

// This file is the metadata-journal layer: shard routing, TID and version
// allocation, record appends' shared helpers, the relaxed-durability epoch
// engine, per-shard high-water checkpointing (§4.1.2), and the quiescent
// pressure report. The commit pipeline (commit.go,
// global.go), consolidation (consolidate.go) and slot release (slots.go)
// all append through these helpers; recovery (recover.go) is their read
// side.

// shardFor maps a committing core to its journal shard.
func (s *SSP) shardFor(core int) int { return core % len(s.journals) }

// shardOfSlot maps slot-keyed records (consolidation, release, and a global
// transaction's prepare records) to the slot's owning shard, spreading them
// deterministically.
func (s *SSP) shardOfSlot(sid int) int { return sid % len(s.journals) }

// allocTID draws the next transaction ID. A caller appends to the journal
// shard before any other core runs, so each shard's stream stays
// TID-monotonic.
func (s *SSP) allocTID() uint32 {
	s.nextTID++
	return s.nextTID
}

// allocVer draws the next slot update version.
func (s *SSP) allocVer() uint32 {
	s.nextVer++
	return s.nextVer
}

// sharded reports whether the journal runs with more than one shard; the
// single-journal paper model skips the per-record version (see meta.go).
func (s *SSP) sharded() bool { return len(s.journals) > 1 }

// appendRecord appends one slot-state record to shard si and accounts it:
// dirty-slot marking and the per-shard/aggregate record counters. core routes
// the per-core counter shard (pass a negative core for background records
// charged to the shared shard).
func (s *SSP) appendRecord(si int, core int, rec wal.Record, sid int, at engine.Cycles) engine.Cycles {
	t := s.journals[si].Append(rec, at)
	s.markUnsealed(si)
	s.dirtySlots[si][sid] = struct{}{}
	if core >= 0 {
		s.env.StatsFor(core).JournalRecords++
	} else {
		s.env.Stats.JournalRecords++
	}
	s.env.Stats.JournalShardRecords[si]++
	return t
}

// appendSlotRecord appends a record of kind under tid carrying slot sid's
// state st, encoded for this machine's journal geometry, to shard si (see
// appendRecord).
func (s *SSP) appendSlotRecord(si, core int, tid uint32, kind uint8, sid int, st slotState, at engine.Cycles) engine.Cycles {
	var buf [journalPayloadVerBytes]byte
	payload := putJournalPayload(buf[:], sid, st, &s.env.Layout, s.sharded())
	return s.appendRecord(si, core, wal.Record{TID: tid, Kind: kind, Payload: payload}, sid, at)
}

// appendBatch appends one transaction's update-record batch (recUpdate …
// recUpdateEnd) for the sorted, non-empty write-set pages to shard si under
// tid, snapshotting each page's slot state as it goes. Returns the pending
// slot publications and the append completion time; the batch is NOT yet
// flushed. The publications live in the core's reused buffer, valid until its
// next commit.
func (s *SSP) appendBatch(si, core int, pages []int, tid uint32, at engine.Cycles) ([]slotPub, engine.Cycles) {
	t := at
	pubs := s.pubs[core][:0]
	for i, vpn := range pages {
		pub := s.snapshotPage(core, vpn)
		kind := uint8(recUpdate)
		if i == len(pages)-1 {
			kind = recUpdateEnd
		}
		t = s.appendSlotRecord(si, core, tid, kind, pub.sid, pub.st, t)
		s.noteUpdate(pub.meta, si)
		pubs = append(pubs, pub)
	}
	s.pubs[core] = pubs
	return pubs, t
}

// ---------------------------------------------------------------------------
// Relaxed-durability epoch engine (Config.DurabilityEpoch > 0). A relaxed
// commit (CommitRelaxed) buffers its journal batch without flushing and
// returns: the batch joins the shard's open EPOCH, together with the
// commit's issued-but-unfenced data flushes and its deferred slot-shadow
// publications. The epoch hardens — in one amortised step — when its age
// reaches DurabilityEpoch cycles, at Sync or Drain, before any checkpoint
// truncation, or piggybacked on any synchronous flush of the shard:
// hardening waits (in simulated time) for the members' data fences,
// appends one recEpochSeal record, flushes the ring once, and only then
// installs the members' slot states. Every explicit flush goes through
// flushShard, so a seal always precedes it and epoch boundaries are the
// ONLY positions recovery may cut replay at — durable bytes past a shard's
// last seal can only be incidental full-line drains of an epoch that never
// hardened, and are treated as absent (recover.go).

// shardEpoch is one journal shard's open relaxed-durability epoch.
type shardEpoch struct {
	open   bool          // at least one relaxed commit is buffered unsealed
	openAt engine.Cycles // the first such commit's buffering time
	fence  engine.Cycles // max in-flight data-flush completion of the members
	pubs   []slotPub     // member publications deferred until the seal
	dirty  bool          // any record appended since the last seal
	holds  []int         // participant shards' prepHolds to release at the seal
}

// markUnsealed notes an append to shard si that the next flush must cover
// with a seal. appendRecord calls it; direct Append sites (the global End)
// must call it themselves. No-op in the synchronous model.
func (s *SSP) markUnsealed(si int) {
	if s.cfg.DurabilityEpoch > 0 {
		s.epochs[si].dirty = true
	}
}

// noteUpdate records the page's most recent update/prepare-record position
// (pageMeta.lastUpdate) for the relaxed-durability cross-shard barrier.
// No-op in the synchronous model.
func (s *SSP) noteUpdate(meta *pageMeta, si int) {
	if s.cfg.DurabilityEpoch <= 0 {
		return
	}
	meta.lastUpdate = journalRef{shard: si, mark: s.journals[si].MarkHere()}
}

// flushShard makes shard si's ring durable. In relaxed-durability mode
// every explicit flush is an epoch boundary and diverts through
// hardenShard; with DurabilityEpoch == 0 it is a plain stream flush —
// bit-for-bit the synchronous model. core routes the stats shard (negative
// = background/shared).
func (s *SSP) flushShard(si, core int, at engine.Cycles) engine.Cycles {
	if s.cfg.DurabilityEpoch <= 0 {
		return s.journals[si].Flush(at)
	}
	return s.hardenShard(si, core, at)
}

// hardenShard seals and flushes shard si's unsealed records: wait (in
// simulated time) for the open epoch's in-flight data fences, append one
// recEpochSeal record, flush the ring, then install the epoch's deferred
// slot publications. With nothing unsealed it degenerates to a plain (and
// usually free) flush.
func (s *SSP) hardenShard(si, core int, at engine.Cycles) engine.Cycles {
	ep := &s.epochs[si]
	if !ep.dirty {
		return s.journals[si].Flush(at)
	}
	t := engine.MaxCycles(at, ep.fence)
	// The seal reuses the stream's last TID: a fresh one could regress the
	// stream when a commit still has to append records under the sealed
	// TID's transaction (a global commit eagerly seals participant shards
	// BEFORE its End record lands on the coordinator, which may be one of
	// them). Recovery filters seals out before the TID merge, so the reuse
	// is invisible there.
	t = s.journals[si].Append(wal.Record{TID: s.journals[si].LastTID(), Kind: recEpochSeal}, t)
	t = s.journals[si].Flush(t)
	st := s.env.Stats
	if core >= 0 {
		st = s.env.StatsFor(core)
	}
	st.EpochSeals++
	if ep.open {
		st.HardenedEpochs++
		st.EpochHardenLag += uint64(t - ep.openAt)
	}
	s.publishSlots(ep.pubs)
	for _, h := range ep.holds {
		s.prepHolds[h]--
	}
	*ep = shardEpoch{}
	return t
}

// relaxedLocalCommit is the single-shard journal leg of CommitRelaxed:
// append the batch and return at the buffered-append completion — no flush,
// no publication yet. The batch joins the shard's open epoch; hardening
// installs its slot states. The committer whose buffering time crosses the
// epoch's age bound pays the (amortised) harden itself, so an epoch's
// un-hardened age is bounded by DurabilityEpoch under any commit cadence.
func (s *SSP) relaxedLocalCommit(core int, pages []int, start, fence engine.Cycles) engine.Cycles {
	si := s.shardFor(core)
	tid := s.allocTID()
	pubs, t := s.appendBatch(si, core, pages, tid, start)
	ep := &s.epochs[si]
	if !ep.open {
		ep.open = true
		ep.openAt = start
	}
	if fence > ep.fence {
		ep.fence = fence
	}
	ep.pubs = append(ep.pubs, pubs...)
	s.env.StatsFor(core).RelaxedCommits++
	if start >= ep.openAt+s.cfg.DurabilityEpoch {
		t = s.hardenShard(si, core, t)
	}
	if s.parallel {
		s.maybeCheckpointShard(si, t)
	}
	return t
}

// hardenPageUpdates hardens the shard holding the page's most recent
// update/prepare record, unless that shard IS dest — the shard about to
// receive a new record carrying the page's cumulative state (consolidation;
// barrierFlush runs the commit-path equivalent inline). No-op in the
// synchronous model and when the position is already durable.
func (s *SSP) hardenPageUpdates(meta *pageMeta, dest int, at engine.Cycles) engine.Cycles {
	if s.cfg.DurabilityEpoch <= 0 {
		return at
	}
	upd := meta.lastUpdate
	if upd.shard == dest {
		return at
	}
	if !s.journals[upd.shard].Durable(upd.mark) {
		at = s.hardenShard(upd.shard, -1, at)
	}
	return at
}

// HardenIdle is the idle-path extension of the relaxed mode: it hardens the
// calling core's own metadata shard's open epoch, if one is open, and
// reports whether a harden ran. relaxedLocalCommit bills the epoch age bound
// to the NEXT committer crossing it, so a shard whose cores all go quiet
// would hold its last acknowledged epoch volatile until a Sync or Drain —
// unbounded in host time; a serving loop's idle path calls this instead.
// No age check here: an idle core's clock is frozen, so the caller decides
// "idle long enough" in host time. A no-op, reporting false, with the
// relaxed mode off and on a shard with nothing unsealed.
func (s *SSP) HardenIdle(core int, at engine.Cycles) (engine.Cycles, bool) {
	if s.cfg.DurabilityEpoch <= 0 {
		return at, false
	}
	si := s.shardFor(core)
	if !s.epochs[si].dirty {
		return at, false
	}
	t := s.hardenShard(si, core, at)
	s.clock(t)
	return t, true
}

// hardenAllShards hardens every shard's open epoch (Sync, Drain). The
// shards are independent rings flushed concurrently in simulated time, so
// the completion is the max — not the sum — of the per-shard hardens.
func (s *SSP) hardenAllShards(core int, at engine.Cycles) engine.Cycles {
	t := at
	for si := range s.journals {
		if done := s.hardenShard(si, core, at); done > t {
			t = done
		}
	}
	return t
}

// Sync is the relaxed mode's durability upgrade barrier: on return, every
// commit acknowledged before the call — relaxed or not — is durable. With
// DurabilityEpoch == 0 everything already is, and Sync is free: CommitRelaxed
// is then bit-for-bit Commit, so the relaxed mode disabled costs nothing.
func (s *SSP) Sync(core int, at engine.Cycles) engine.Cycles {
	if s.cfg.DurabilityEpoch <= 0 {
		return at
	}
	t := s.hardenAllShards(core, at)
	s.clock(t)
	return t
}

// overHighWater reports whether shard si's ring passed the checkpoint
// trigger (§4.1.2).
func (s *SSP) overHighWater(si int) bool {
	return float64(s.journals[si].Used()) >= s.cfg.JournalHighWater*float64(s.journals[si].Capacity())
}

// maybeCheckpointShard applies shard si's journal to the persistent slot
// array and truncates the ring once it passes its high-water mark (§4.1.2
// "Checkpointing"). Checkpointing is per-shard: a hot core fills only its
// own ring and drains only its own dirty slots, so it cannot force global
// checkpoints. Background work: bank time only.
func (s *SSP) maybeCheckpointShard(si int, at engine.Cycles) {
	if !s.overHighWater(si) {
		return
	}
	s.checkpointShard(si, at)
}

// maybeCheckpointAll runs the per-shard high-water check on every shard.
// Serial mode only (the commit path's post-consolidation check).
func (s *SSP) maybeCheckpointAll(at engine.Cycles) {
	for si := range s.journals {
		s.maybeCheckpointShard(si, at)
	}
}

// checkpointShard writes the final state of every slot dirtied through
// shard si to the persistent SSP cache and resets that shard's ring
// ("capture the final state of a modified cache entry and only write it
// back to the persistent cache"). The checkpointed entries carry their slot
// update versions, so records for the same slots still sitting in other
// shards' rings are ordered against the checkpoint at recovery.
//
// Cross-shard rule: if this ring holds coordinator end records of global
// transactions whose prepare records live in OTHER shards' rings, those
// prepares lose their proof of commit once this ring truncates and is
// overwritten — recovery would roll a committed transaction back in the
// participant shards only, tearing it. So the checkpoint also persists
// every such transaction's slots (pendingGlobalSlots, recorded at global
// publish time): the slot array then supersedes the orphaned prepares via
// the version guard, exactly as it supersedes this shard's own truncated
// records. Reading another shard's slot is safe here — slotShadow never
// holds state whose journal records are not yet durable.
func (s *SSP) checkpointShard(si int, at engine.Cycles) {
	// Relaxed-durability legs. A participant shard whose prepare records
	// still await their coordinator End's hardening must not truncate
	// (relaxedGlobalCommit's prepHold) — defer; the high-water trigger
	// refires once the hold clears. Otherwise harden this shard's own open
	// epoch first: the members' records become durable and their slot
	// states published, so the dirty-slot persistence below captures them
	// and the truncation orphans nothing.
	if s.cfg.DurabilityEpoch > 0 {
		if s.prepHolds[si] > 0 {
			return
		}
		at = s.hardenShard(si, -1, at)
	}
	dirty := s.dirtySlots[si]
	pending := s.pendingGlobalSlots[si]
	if len(dirty) == 0 && len(pending) == 0 {
		s.journals[si].Reset()
		return
	}
	t := at
	sids := make([]int, 0, len(dirty)+len(pending))
	for sid := range dirty {
		sids = append(sids, sid)
	}
	for sid := range pending {
		if _, own := dirty[sid]; !own {
			sids = append(sids, sid)
		}
	}
	sort.Ints(sids)
	var line [slotBytes]byte
	for _, sid := range sids {
		slotLine.put(line[:], s.slotShadow[sid], &s.env.Layout)
		t = s.env.Mem.WriteLine(s.slotAddr(sid), line[:], t, stats.CatCheckpoint)
	}
	s.journals[si].Reset()
	clear(dirty)
	clear(pending)
	s.env.Stats.Checkpoints++
	s.env.Stats.JournalShardCheckpoints[si]++
	s.clock(t)
}

// JournalShardPressure describes one metadata-journal shard's state at a
// quiescent point: the ring's instantaneous fill plus the work it absorbed
// since the last stats reset.
type JournalShardPressure struct {
	Shard       int
	UsedBytes   int // bytes appended since the shard's last checkpoint
	Capacity    int // ring capacity in bytes
	Records     uint64
	Checkpoints uint64
}

// FillFrac returns the shard ring's current fill fraction.
func (p JournalShardPressure) FillFrac() float64 {
	if p.Capacity == 0 {
		return 0
	}
	return float64(p.UsedBytes) / float64(p.Capacity)
}

// JournalPressure reports per-shard journal state. Quiescent-machine
// helper, like Stats aggregation.
func (s *SSP) JournalPressure() []JournalShardPressure {
	out := make([]JournalShardPressure, len(s.journals))
	for i, j := range s.journals {
		out[i] = JournalShardPressure{
			Shard:       i,
			UsedBytes:   j.Used(),
			Capacity:    j.Capacity(),
			Records:     s.env.Stats.JournalShardRecords[i],
			Checkpoints: s.env.Stats.JournalShardCheckpoints[i],
		}
	}
	return out
}

// slotAddr returns slot sid's durable address in the persistent slot array.
func (s *SSP) slotAddr(sid int) memsim.PAddr {
	return s.env.Layout.SSPSlotsBase + memsim.PAddr(sid*slotBytes)
}
