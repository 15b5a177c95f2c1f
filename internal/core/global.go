package core

import (
	"slices"
	"sort"

	"repro/internal/engine"
	"repro/internal/wal"
)

// Cross-shard (global) transactions. A section opened with BeginGlobal may
// write pages whose slots belong to different journal shards — the
// distributed-commit workload class the per-core sharded journal had never
// been exercised by. Its commit replaces the single-shard batch with a
// two-phase protocol:
//
//	Phase 1 (prepare): for every participant shard, in ascending shard
//	  order, append one recPrepare record per write-set page owned by that
//	  shard (payload identical to recUpdate, including the slot update
//	  version); then flush every participant shard, issued concurrently in
//	  simulated time — the independent rings absorb their flushes in
//	  parallel, so the fence charges the max, not the sum, of the shard
//	  flush latencies. After this phase every participant holds the
//	  transaction's updates durably — but none may apply yet.
//
//	Phase 2 (decide): append a single recGlobalEnd record carrying the
//	  global TID to the coordinator shard — the committing core's own
//	  shard, the shard that "owns" the TID — and flush it. This one line
//	  write is the commit point.
//
// Publication of the slot-shadow states (and hence checkpoint visibility)
// happens only after the end record is durable, exactly like the fast
// path's publish-after-flush rule.
//
// Recovery (recover.go) TID-merges the shards as before; a prepare record
// applies iff its TID's coordinator end record is durable. A crash anywhere
// before the end record therefore rolls back every participant shard
// (all-or-nothing across arenas), a crash after it redoes all of them, and
// the per-slot update version still guards replay against states that a
// participant shard's checkpoint already advanced past.
//
// The TID is drawn once the participants are known and the whole commit
// runs before any other core executes, so every stream stays TID-monotonic.

// BeginGlobal opens a failure-atomic section exactly like Begin, but marks
// it as one whose write set may span pages owned by multiple metadata
// journal shards: Commit then guarantees all-or-nothing atomicity across
// every shard the section touched, with two-phase prepare/end records over
// the participant shards. On a single-shard machine — or when the write set
// turns out to fit one shard — the commit degrades to the exact
// single-shard fast path, so the flag costs nothing. The logging designs
// have no counterpart: their per-core logs are atomic for any write set, so
// the machine opens a plain Begin on them.
func (s *SSP) BeginGlobal(core int, at engine.Cycles) engine.Cycles {
	t := s.Begin(core, at)
	s.globalTxn[core] = true
	return t
}

// participantShards returns the sorted distinct journal shards owning the
// write-set pages' slots. Slot assignment is immutable while the pages are
// core-referenced.
func (s *SSP) participantShards(pages []int) []int {
	seen := map[int]bool{}
	var shards []int
	for _, vpn := range pages {
		si := s.shardOfSlot(s.lookupMeta(vpn).slot)
		if !seen[si] {
			seen[si] = true
			shards = append(shards, si)
		}
	}
	sort.Ints(shards)
	return shards
}

// globalCommit is the two-phase journal leg of a cross-shard commit over
// the participant shards (ascending).
func (s *SSP) globalCommit(core int, shards []int, pages []int, start, fence engine.Cycles) engine.Cycles {
	// Prepare records carry no commit point, so their appends and flushes
	// overlap the data-flush fence in simulated time: the controller may
	// issue them while the write-set clwbs are still in flight, because
	// only the coordinator End — which waits for both — orders the
	// transaction. (Recovery of prepares without a durable End rolls back,
	// so a crash in the overlap window is the ordinary phase-1 crash.)
	t := start
	coord := s.shardFor(core)

	// Group the write set by owning shard (pages stay vpn-sorted within a
	// group, so serial runs append deterministically).
	groups := make(map[int][]int, len(shards))
	for _, vpn := range pages {
		si := s.shardOfSlot(s.lookupMeta(vpn).slot)
		groups[si] = append(groups[si], vpn)
	}

	involved := involvedShards(shards, coord)
	tid := s.allocTID()

	// Phase 1: prepare records appended into every participant shard first
	// (ascending shard order), then the
	// per-shard flushes issued concurrently in simulated time. The shards
	// are independent rings in distinct NVRAM regions, so the fence charges
	// the max — not the sum — of the shard flush completions; the old
	// serialised fan-out was a modelling artefact, not hardware.
	var mask uint32
	pubs := make([]slotPub, 0, len(pages))
	for _, si := range shards {
		mask |= 1 << uint(si)
		for _, vpn := range groups[si] {
			pub := s.snapshotPage(core, vpn)
			t = s.appendSlotRecord(si, core, tid, recPrepare, pub.sid, pub.st, t)
			s.noteUpdate(pub.meta, si)
			s.env.StatsFor(core).PrepareRecords++
			pubs = append(pubs, pub)
		}
	}
	prepDone := t
	for _, si := range shards {
		if done := s.flushShard(si, core, t); done > prepDone {
			prepDone = done
		}
	}
	// The commit point waits for both legs: every prepare durable AND
	// every write-set line's data flush landed.
	t = engine.MaxCycles(prepDone, fence)
	// flushData charged the full fence wait to CommitBarrierWait, but the
	// part hidden under the concurrently running prepare leg never blocked
	// the core — only the fence tail past prepDone does. Refund the
	// overlap so the counter keeps meaning "cycles blocked on the data
	// barrier".
	if hidden := min(fence, prepDone) - start; hidden > 0 {
		s.env.StatsFor(core).CommitBarrierWait -= uint64(hidden)
	}

	// Phase 2: the coordinator end record is the commit point.
	t = s.journals[coord].Append(wal.Record{TID: tid, Kind: recGlobalEnd, Payload: globalEndPayload(mask)}, t)
	s.markUnsealed(coord)
	t = s.flushShard(coord, core, t)
	s.env.StatsFor(core).JournalRecords++
	s.env.Stats.JournalShardRecords[coord]++
	s.env.StatsFor(core).GlobalCommits++

	// Publish only now that the whole distributed batch is durable, then
	// note which rings passed their high-water mark. The coordinator also
	// remembers this transaction's slots: its end record
	// is what keeps the participant-shard prepares applicable, so a
	// coordinator checkpoint must persist these slots before truncating it
	// (see checkpointShard).
	s.publishSlots(pubs)
	for _, p := range pubs {
		s.pendingGlobalSlots[coord][p.sid] = struct{}{}
	}
	s.checkpointOverHighWater(involved, t)
	return t
}

// involvedShards returns the participant shards plus the coordinator,
// ascending.
func involvedShards(shards []int, coord int) []int {
	if slices.Contains(shards, coord) {
		return shards
	}
	involved := append(append([]int{}, shards...), coord)
	sort.Ints(involved)
	return involved
}

// checkpointOverHighWater checkpoints, in parallel mode, every involved
// shard whose ring passed its high-water mark during a global commit (serial
// mode checkpoints after stage 5's consolidations, at Commit's tail). A
// checkpoint writes the slot array and empties only its own ring, so one
// shard's checkpoint never moves another past or below its mark.
func (s *SSP) checkpointOverHighWater(involved []int, t engine.Cycles) {
	if s.parallel {
		for _, si := range involved {
			s.maybeCheckpointShard(si, t)
		}
	}
}

// relaxedGlobalCommit is CommitRelaxed's cross-shard journal leg. Phase 1
// is EAGER: the prepare records are appended and their participant shards
// sealed and flushed immediately (hardening any open epochs there along the
// way) — prepares carry no commit point, so there is nothing to relax, and
// eager sealing keeps the wall-order invariant "coordinator End durable ⇒
// its prepares durable" without any cross-shard hardening dependency.
// Phase 2 is DEFERRED: the coordinator End record — the commit point — is
// buffered into the coordinator's open epoch without a flush, and the whole
// distributed batch's slot publication waits for that epoch to harden. A
// crash before the harden finds durable prepares with no durable End and
// rolls the transaction back on every shard (the ordinary phase-1 crash,
// acknowledged-but-lost); a crash after redoes all of them — never a tear.
//
// The deferral leaves one cross-shard obligation: until the End hardens, a
// PARTICIPANT shard must not checkpoint — its prepares would be truncated
// away (with their pre-transaction slot states, publication being still
// pending) while the End could yet harden, leaving a half-applied global
// transaction for recovery. Each participant therefore takes a prepHold,
// released when the coordinator's epoch hardens; checkpointShard defers
// while holds are outstanding (the high-water trigger simply refires).
func (s *SSP) relaxedGlobalCommit(core int, shards []int, pages []int, start, fence engine.Cycles) engine.Cycles {
	t := start
	coord := s.shardFor(core)

	groups := make(map[int][]int, len(shards))
	for _, vpn := range pages {
		si := s.shardOfSlot(s.lookupMeta(vpn).slot)
		groups[si] = append(groups[si], vpn)
	}

	involved := involvedShards(shards, coord)
	tid := s.allocTID()

	// Phase 1: prepares into every participant, then the eager per-shard
	// seals issued concurrently in simulated time (max, not sum — the same
	// rule as the synchronous protocol's prepare fan-out).
	var mask uint32
	pubs := make([]slotPub, 0, len(pages))
	for _, si := range shards {
		mask |= 1 << uint(si)
		for _, vpn := range groups[si] {
			pub := s.snapshotPage(core, vpn)
			t = s.appendSlotRecord(si, core, tid, recPrepare, pub.sid, pub.st, t)
			s.noteUpdate(pub.meta, si)
			s.env.StatsFor(core).PrepareRecords++
			pubs = append(pubs, pub)
		}
	}
	prepDone := t
	for _, si := range shards {
		if done := s.flushShard(si, core, t); done > prepDone {
			prepDone = done
		}
	}

	// Phase 2, deferred: buffer the End record into the coordinator's open
	// epoch. The acknowledgement waits only for the buffered append; the
	// epoch's fence absorbs both the data flushes and the prepare seals, so
	// the eventual harden — the real commit point — lands after every piece
	// of the transaction is durable in simulated time too.
	t = s.journals[coord].Append(wal.Record{TID: tid, Kind: recGlobalEnd, Payload: globalEndPayload(mask)}, t)
	s.markUnsealed(coord)
	s.env.StatsFor(core).JournalRecords++
	s.env.Stats.JournalShardRecords[coord]++
	s.env.StatsFor(core).GlobalCommits++
	s.env.StatsFor(core).RelaxedCommits++

	ep := &s.epochs[coord]
	if !ep.open {
		ep.open = true
		ep.openAt = start
	}
	if f := engine.MaxCycles(fence, prepDone); f > ep.fence {
		ep.fence = f
	}
	ep.pubs = append(ep.pubs, pubs...)
	for _, si := range shards {
		if si != coord {
			s.prepHolds[si]++
			ep.holds = append(ep.holds, si)
		}
	}
	// The coordinator's ring holds (or will hold, once hardened) the End
	// that keeps the other shards' prepares applicable: its checkpoint must
	// persist these slots before truncating it, exactly as in the
	// synchronous protocol.
	for _, p := range pubs {
		s.pendingGlobalSlots[coord][p.sid] = struct{}{}
	}
	if start >= ep.openAt+s.cfg.DurabilityEpoch {
		t = s.hardenShard(coord, core, t)
	}

	s.checkpointOverHighWater(involved, t)
	return t
}
