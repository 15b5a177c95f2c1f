package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/memsim"
	"repro/internal/vm"
	"repro/internal/wal"
)

// Crash implements txn.Backend: power loss wipes every volatile structure —
// transient SSP cache, write-set buffers, journal buffers, residency model.
// The durable slot array, journal shards and fall-back logs survive in
// NVRAM.
//
// Everything is cleared in place, at the cost of what the run used: the
// slot tables shrink to nothing (Recover regrows them to the slots NVRAM
// and the journal name) and the maps keep their storage.
func (s *SSP) Crash() {
	s.resetEntries()
	for i := range s.dirtySlots {
		clear(s.dirtySlots[i])
	}
	s.resetSlots()
	s.resident.Reset()
	for c := range s.ws {
		s.ws[c].reset()
		s.inTxn[c] = false
		s.globalTxn[c] = false
		s.fallback[c] = false
		clear(s.fbOld[c])
		clear(s.fbPages[c])
		s.fbLogs[c].Reset()
	}
	for i := range s.journals {
		s.journals[i].Reset()
		clear(s.pendingGlobalSlots[i])
		s.epochs[i] = shardEpoch{}
	}
	s.now = 0
	s.consolQ = s.consolQ[:0]
	s.epochOps = 0
}

// Recover implements txn.Backend (§4.4): rebuild the transient SSP cache
// from the persistent slot array, replay the metadata journal shards in
// merged TID order (skipping transactions without a durable End record),
// roll back interrupted fall-back transactions, repair the page table, and
// rebuild the frame allocator. It reads the slot array and every ring once
// and decodes each journal record once; a record that does not decode fails
// recovery wherever it sits (decodeJournalRecord).
//
// With sharded journals every shard is batch-validated independently (a
// shard's torn tail or batch-without-End drops exactly as with one
// journal), the survivors are merged by their globally monotonic TIDs, and
// each record applies only if its slot update version is newer than the
// slot's: a record left in one shard's ring must not regress a slot that
// another shard's checkpoint already advanced past it.
//
// Cross-shard transactions add one rule: a recPrepare record — a global
// transaction's slot update in a participant shard — applies iff its TID's
// recGlobalEnd record is durable in the coordinator shard. Every shard's end
// records are collected before any shard is validated, so a torn prepare
// batch in one shard can never drop an unrelated single-shard batch (even
// one with a higher TID) in another.
func (s *SSP) Recover() error {
	s.env.Stats.Recoveries++

	// 1. Load the persistent slot array (including each slot's checkpointed
	// update version), a page of slots at a time, from the top down, so the
	// tables grow once, to the highest line decoded. Only the lines NVRAM
	// holds are decoded: a page never written and an all-zero line hold
	// formatted slots (slots.go; no encoded slot is all zeros: a free one has
	// vpn invalidU32, a used one two distinct frames).
	s.resetSlots()
	var page [memsim.PageBytes]byte
	var maxVer uint32
	const perPage = len(page) / slotBytes
	for first := (s.cfg.Entries - 1) / perPage * perPage; first >= 0; first -= perPage {
		if !s.env.Mem.Written(s.slotAddr(first)) {
			continue
		}
		n := min(perPage, s.cfg.Entries-first)
		s.env.Mem.Peek(s.slotAddr(first), page[:n*slotBytes])
		for i := n - 1; i >= 0; i-- {
			line := page[i*slotBytes : (i+1)*slotBytes]
			if [slotBytes]byte(line) == [slotBytes]byte{} {
				continue
			}
			st, err := slotLine.get(first+i, line, &s.env.Layout)
			if err != nil {
				return err
			}
			s.slotDecodes++
			s.growSlots(first + i + 1)
			s.slotShadow[first+i] = st
			maxVer = max(maxVer, st.ver)
		}
	}

	// 2. Scan every journal shard once and decode each record once, into
	// one buffer: each shard's records, then room for the batch under
	// validation. The per-shard slices live on the stack.
	var scans [vm.MaxJournalShards][]wal.Record
	var shardBuf [vm.MaxJournalShards][]journalRecord
	raw, shards := scans[:len(s.env.Layout.JournalBase)], shardBuf[:len(s.env.Layout.JournalBase)]
	total, longest := 0, 0
	for i, base := range s.env.Layout.JournalBase {
		raw[i] = wal.Scan(s.env.Mem, base, s.env.Layout.Cfg.JournalBytes)
		total, longest = total+len(raw[i]), max(longest, len(raw[i]))
	}
	buf := make([]journalRecord, total+longest)
	batch := buf[total:total:len(buf)]
	var maxTID uint32
	for i, recs := range raw {
		shards[i], buf = buf[:len(recs):len(recs)], buf[len(recs):]
		for j, r := range recs {
			jr, err := s.decodeJournalRecord(r)
			if err != nil {
				return fmt.Errorf("%w (journal shard %d, record %d, TID %d, kind %d)", err, i, j, r.TID, r.Kind)
			}
			shards[i][j] = jr
			// Versions and TIDs consumed by dropped batches — including
			// everything the epoch cut below discards — must stay below the
			// next allocation, so this covers every record, applied or not.
			maxTID, maxVer = max(maxTID, r.TID), max(maxVer, jr.st.ver)
		}
	}

	// Epoch cut (Config.DurabilityEpoch > 0): each shard replays only up to
	// its last recEpochSeal. Every explicit flush appends a seal first
	// (flushShard), so bytes past the last seal can only be incidental
	// full-line drains of an epoch that never hardened — relaxed commits the
	// machine acknowledged but never promised durable yet. They are absent
	// by definition, and dropping whole epochs (never parts of one) is what
	// keeps a relaxed crash from tearing: in particular the end TIDs below
	// come from the CUT lists, so a coordinator End sitting in an open epoch
	// cannot commit its (durably sealed) prepares in other shards.
	endTIDs := make(map[uint32]bool)
	for i, recs := range shards {
		if s.cfg.DurabilityEpoch > 0 {
			cut := 0
			for j, r := range recs {
				if r.kind == recEpochSeal {
					cut = j + 1
				}
			}
			for _, r := range recs[cut:] {
				s.env.Stats.DroppedEpochRecords++
				if r.kind == recUpdateEnd || r.kind == recGlobalEnd {
					s.env.Stats.LostEpochTxns++
				}
			}
			recs = recs[:cut]
			shards[i] = recs
		}
		for _, r := range recs {
			if r.kind == recGlobalEnd {
				endTIDs[r.tid] = true
			}
		}
	}
	// Each shard's survivors replace its records, in place.
	droppedGlobal := make(map[uint32]bool)
	for i, recs := range shards {
		shards[i] = s.validShardRecords(recs, batch, endTIDs, droppedGlobal)
	}
	// Each sealed global transaction recovered once, each unsealed one
	// rolled back once — regardless of how many shards its records span.
	s.env.Stats.RecoveredTxns += uint64(len(endTIDs))
	s.env.Stats.RolledBackTxns += uint64(len(droppedGlobal))
	merged := wal.Merge(shards, func(r *journalRecord) uint32 { return r.tid })
	// The tables grow once, to the highest slot a record below applies to:
	// a slot past them is formatted (version 0), so the first record naming
	// it applies if the journal is unsharded or the record carries a
	// version.
	hi := len(s.slotShadow)
	for _, r := range merged {
		if !s.sharded() || r.st.ver > 0 {
			hi = max(hi, r.sid+1)
		}
	}
	s.growSlots(hi)
	for _, r := range merged {
		// With sharded journals a record must be newer than the slot's
		// checkpointed state to apply; with the single paper-model journal
		// the stream order is the update order (records carry no version)
		// and every surviving record applies, exactly as before sharding.
		if s.sharded() && r.st.ver <= s.shadowOf(r.sid).ver {
			continue // the slot already holds this update (or a newer one)
		}
		s.slotShadow[r.sid] = r.st
		s.env.Stats.ReplayedRecords++
	}

	// 3. Roll back interrupted software fall-back transactions (their undo
	// logs live in the per-core log regions), every log decoded before any
	// line is written back.
	logs, logTID, err := s.env.ReadLogs(fbKindData, fbKindCommit)
	if err != nil {
		return err
	}
	maxTID = max(maxTID, logTID)
	for _, l := range logs {
		if l.Interrupted() {
			s.env.Rollback(l)
			s.env.Stats.RolledBackTxns++
		}
	}

	// 4. Rebuild the page table mirror, repair consolidation flips, and
	// build the transient SSP cache: current := committed, refcounts zero.
	// Only the tables' slots are visited: the ones past them are formatted,
	// free and handed out after the stack.
	s.env.PT.Rebuild()
	s.resetEntries()
	used := 0
	for _, st := range s.slotShadow {
		if st.vpn >= 0 {
			used++
		}
	}
	metas := make([]pageMeta, used) // the rebuilt entries, allocated together
	for sid := len(s.slotShadow) - 1; sid >= 0; sid-- {
		st := s.slotShadow[sid]
		if st.vpn < 0 {
			s.freeSlots = append(s.freeSlots, sid)
			continue
		}
		// The entry table being rebuilt holds the slot that claimed vpn
		// first.
		if prev := s.lookupMeta(st.vpn); prev != nil {
			return fmt.Errorf("core: slots %d and %d both claim vpn %d", prev.slot, sid, st.vpn)
		}
		if cur, ok := s.env.PT.Lookup(st.vpn); !ok || cur != st.ppn0 {
			// The consolidation's PTE write was lost; the journal record is
			// authoritative.
			s.env.PT.Set(st.vpn, st.ppn0, 0)
			s.env.Stats.RecoveryNVWrites++
		}
		meta := &metas[len(metas)-1]
		metas = metas[:len(metas)-1]
		*meta = pageMeta{
			vpn:       st.vpn,
			slot:      sid,
			ppn0:      st.ppn0,
			ppn1:      st.ppn1,
			committed: st.committed,
			current:   st.committed,
		}
		s.slotOwner[sid] = meta
		s.storeMeta(meta)
	}

	// 5. Rebuild the frame allocator: every PTE-mapped frame plus every
	// slot's spare is live; the formatted slots' spares are one range.
	if err := s.env.Frames.Rebuild(s.env.PT, len(s.slotShadow), s.cfg.Entries, func(sid int) memsim.PAddr { return s.slotShadow[sid].ppn1 }); err != nil {
		return err
	}

	s.nextTID = max(s.nextTID, maxTID)
	s.nextVer = max(s.nextVer, maxVer)
	for i := range s.journals {
		s.journals[i].Reset()
		s.journals[i].SetTIDFloor(maxTID)
	}
	for c := range s.fbLogs {
		s.fbLogs[c].Reset()
		s.fbLogs[c].SetTIDFloor(maxTID)
	}
	return nil
}

// journalRecord is one journal record as recovery reads it, its payload
// decoded once: sid and st are the slot id and state of the kinds that
// carry one (every kind but recGlobalEnd and recEpochSeal).
type journalRecord struct {
	tid  uint32
	kind uint8
	sid  int
	st   slotState
}

// decodeJournalRecord decodes r's payload by its kind. A payload its kind
// does not admit — a wrong length, a slot past Entries, a frame outside the
// pool, a vpn outside the heap — and an unknown kind are errors, wherever
// the record sits: recovery refuses a corrupt journal rather than guess
// which of its records it may ignore.
func (s *SSP) decodeJournalRecord(r wal.Record) (journalRecord, error) {
	s.journalDecodes++
	jr := journalRecord{tid: r.TID, kind: r.Kind}
	switch r.Kind {
	case recUpdate, recUpdateEnd, recConsolidate, recRelease, recPrepare:
		if len(r.Payload) != journalPayloadBytes && len(r.Payload) != journalPayloadVerBytes {
			return jr, fmt.Errorf("core: bad journal payload length %d", len(r.Payload))
		}
		if jr.sid = int(binary.LittleEndian.Uint32(r.Payload)); jr.sid >= s.cfg.Entries {
			return jr, fmt.Errorf("core: journal record names slot %d of %d", jr.sid, s.cfg.Entries)
		}
		var err error
		if jr.st, err = journalPayload.get(jr.sid, r.Payload, &s.env.Layout); err != nil {
			return jr, err
		}
	case recGlobalEnd:
		if len(r.Payload) != globalEndPayloadBytes {
			return jr, fmt.Errorf("core: bad global-end payload length %d, want %d", len(r.Payload), globalEndPayloadBytes)
		}
	case recEpochSeal:
		if len(r.Payload) != 0 {
			return jr, fmt.Errorf("core: bad epoch-seal payload length %d, want 0", len(r.Payload))
		}
	default:
		return jr, fmt.Errorf("core: unknown journal record kind %d", r.Kind)
	}
	return jr, nil
}

// validShardRecords applies one shard's batch-framing semantics: update
// batches survive only through a durable recUpdateEnd record,
// consolidate/release records survive unconditionally, and a global
// transaction's prepare records survive only when endTIDs carries their TID
// (the coordinator end record was durable somewhere). A batch superseded by
// a new TID mid-stream can only be a torn-tail artifact and drops silently;
// a trailing unsealed batch is the crashed transaction and counts as rolled
// back (§4.1.1). Unsealed global TIDs accumulate in droppedGlobal so the
// caller can count each distributed rollback once across all its shards.
// The survivors keep their shard-local order and are returned in recs's
// own storage (each is written no later than it is read); batch is empty,
// with room for len(recs) records: a batch collects there until it is
// sealed and copied out.
func (s *SSP) validShardRecords(recs, batch []journalRecord, endTIDs, droppedGlobal map[uint32]bool) []journalRecord {
	out := recs[:0]
	var batchTID uint32
	for _, r := range recs {
		switch r.kind {
		case recUpdate, recUpdateEnd:
			if len(batch) > 0 && r.tid != batchTID {
				batch = batch[:0]
			}
			batchTID = r.tid
			batch = append(batch, r)
			if r.kind == recUpdateEnd {
				out = append(out, batch...)
				s.env.Stats.RecoveredTxns++
				batch = batch[:0]
			}
		case recConsolidate, recRelease:
			out = append(out, r)
		case recPrepare:
			if endTIDs[r.tid] {
				out = append(out, r)
			} else if r.st.ver > s.shadowOf(r.sid).ver {
				// No durable end record. If the slot array already carries a
				// state at least as new, this prepare is the checkpointed
				// remnant of a COMMITTED global whose coordinator end was
				// truncated (checkpointShard persisted its slots first) —
				// not evidence of a torn transaction. Only a prepare the
				// slot array does not supersede marks a genuine rollback.
				droppedGlobal[r.tid] = true
			}
		}
		// recGlobalEnd is the commit point itself and carries no slot state
		// (the caller collected its TIDs); recEpochSeal is an epoch boundary,
		// never inside a batch (a batch is appended whole before any seal can
		// follow it).
	}
	if len(batch) > 0 {
		s.env.Stats.RolledBackTxns++ // speculative updates discarded (§4.1.1)
	}
	return out
}
