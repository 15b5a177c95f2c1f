package core

import (
	"math/bits"
	"slices"

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

// globalScratch is one core's reused buffers for a cross-shard commit, so
// that a global commit allocates no more than a local one.
type globalScratch struct {
	shards    []int // the participant shards, ascending
	pageShard []int // per write-set page: the shard owning its slot
	involved  []int // the participants plus the coordinator, ascending
}

// participantShards returns the sorted distinct journal shards owning core's
// write-set pages' slots, and notes each page's shard for globalCommit.
// Slot assignment is immutable while the pages are core-referenced. The
// result lives in the core's scratch, valid until its next commit.
func (s *SSP) participantShards(core int, pages []int) []int {
	g := &s.global[core]
	g.pageShard = g.pageShard[:0]
	var seen uint32
	for _, vpn := range pages {
		si := s.shardOfSlot(s.lookupMeta(vpn).slot)
		g.pageShard = append(g.pageShard, si)
		seen |= 1 << uint(si)
	}
	g.shards = g.shards[:0]
	for m := seen; m != 0; m &= m - 1 {
		g.shards = append(g.shards, bits.TrailingZeros32(m))
	}
	return g.shards
}

// globalCommit is the two-phase journal leg of a cross-shard commit over
// the participant shards (ascending), as participantShards returned them
// for pages.
//
// Phase 1 is the same in both durability modes: the prepare records are
// appended and their participant shards flushed (hardening any open epochs
// there along the way). Prepares carry no commit point, so there is nothing
// to relax, and their appends and flushes overlap the data-flush fence in
// simulated time: the controller may issue them while the write-set clwbs
// are still in flight, because only the coordinator End — which waits for
// both — orders the transaction. (Recovery of prepares without a durable
// End rolls back, so a crash in the overlap window is the ordinary phase-1
// crash.) Sealing them eagerly keeps the wall-order invariant "coordinator
// End durable ⇒ its prepares durable" in relaxed mode too.
//
// Phase 2 appends the coordinator End record — the commit point.
// Synchronously it is flushed and the slots published. A relaxed commit
// buffers it into the coordinator's open epoch instead (joinEpoch), and the
// whole distributed batch's slot publication waits for that epoch to
// harden. A crash before the harden finds durable prepares with no durable
// End and rolls the transaction back on every shard (acknowledged-but-lost);
// a crash after redoes all of them — never a tear. Until the End hardens, a
// participant shard must not truncate its prepares (with their
// pre-transaction slot states, publication being still pending) while the
// End could yet harden: the epoch's holds name the participants, and
// checkpointShard honours them.
func (s *SSP) globalCommit(core int, shards []int, pages []int, start, fence engine.Cycles, relaxed bool) engine.Cycles {
	t := start
	coord := s.shardFor(core)
	pageShard := s.global[core].pageShard
	tid := s.allocTID()

	// Phase 1: prepare records appended into every participant shard first
	// (ascending shard order), then the per-shard flushes issued
	// concurrently in simulated time. The shards are independent rings in
	// distinct NVRAM regions, so the fence charges the max — not the sum —
	// of the shard flush completions. Each shard's pages go in vpn order,
	// so serial runs append deterministically.
	var mask uint32
	pubs := s.pubs[core][:0]
	for _, si := range shards {
		mask |= 1 << uint(si)
		for i, vpn := range pages {
			if pageShard[i] != si {
				continue
			}
			pub := s.snapshotPage(core, vpn)
			t = s.appendSlotRecord(si, core, tid, recPrepare, pub.sid, pub.st, t)
			s.noteUpdate(pub.meta, si)
			s.env.StatsFor(core).PrepareRecords++
			pubs = append(pubs, pub)
		}
	}
	s.pubs[core] = pubs
	prepDone := t
	for _, si := range shards {
		if done := s.flushShard(si, core, t); done > prepDone {
			prepDone = done
		}
	}

	if relaxed {
		// The acknowledgement waits only for the buffered End append; the
		// epoch's fence absorbs both the data flushes and the prepare
		// seals, so the eventual harden — the real commit point — lands
		// after every piece of the transaction is durable in simulated
		// time too.
		fence = engine.MaxCycles(fence, prepDone)
	} else {
		// The commit point waits for both legs: every prepare durable AND
		// every write-set line's data flush landed. flushData charged the
		// full fence wait to CommitBarrierWait, but the part hidden under
		// the concurrently running prepare leg never blocked the core —
		// only the fence tail past prepDone does. Refund the overlap so the
		// counter keeps meaning "cycles blocked on the data barrier".
		t = engine.MaxCycles(prepDone, fence)
		if hidden := min(fence, prepDone) - start; hidden > 0 {
			s.env.StatsFor(core).CommitBarrierWait -= uint64(hidden)
		}
	}

	// Phase 2: the coordinator end record is the commit point.
	var end [globalEndPayloadBytes]byte
	t = s.journals[coord].Append(wal.Record{TID: tid, Kind: recGlobalEnd, Payload: globalEndPayload(&end, mask)}, t)
	s.markUnsealed(coord)
	s.env.StatsFor(core).JournalRecords++
	s.env.Stats.JournalShardRecords[coord]++
	s.env.StatsFor(core).GlobalCommits++
	// The coordinator remembers this transaction's slots: its end record is
	// what keeps the participant-shard prepares applicable, so a
	// coordinator checkpoint must persist these slots before truncating it
	// (see checkpointShard).
	for _, p := range pubs {
		s.pendingGlobalSlots[coord][p.sid] = struct{}{}
	}
	if relaxed {
		t = s.joinEpoch(coord, core, start, fence, pubs, shards, t)
	} else {
		// Publish only now that the whole distributed batch is durable.
		t = s.flushShard(coord, core, t)
		s.publishSlots(pubs)
	}
	if s.parallel {
		// Checkpoint every involved shard whose ring passed its high-water
		// mark (serial mode checkpoints after stage 5's consolidations, at
		// Commit's tail). A checkpoint writes the slot array and empties
		// only its own ring, so one shard's checkpoint never moves another
		// past or below its mark.
		for _, si := range s.involvedShards(core, shards, coord) {
			s.maybeCheckpointShard(si, t)
		}
	}
	return t
}

// involvedShards returns the participant shards plus the coordinator,
// ascending, in core's scratch when the coordinator is not a participant.
func (s *SSP) involvedShards(core int, shards []int, coord int) []int {
	if slices.Contains(shards, coord) {
		return shards
	}
	g := &s.global[core]
	g.involved = append(append(g.involved[:0], shards...), coord)
	slices.Sort(g.involved)
	return g.involved
}
