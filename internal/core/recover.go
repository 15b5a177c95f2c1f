package core

import (
	"fmt"

	"repro/internal/memsim"
	"repro/internal/stats"
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
		s.prepHolds[i] = 0
	}
	s.now = 0
	s.consolQ = s.consolQ[:0]
	s.epochOps = 0
}

// Recover implements txn.Backend (§4.4): rebuild the transient SSP cache
// from the persistent slot array, replay the metadata journal shards in
// merged TID order (skipping transactions without a durable End record),
// roll back interrupted fall-back transactions, repair the page table, and
// rebuild the frame allocator.
//
// With sharded journals the replay order is a TID-merge: every shard is
// scanned and batch-validated independently (a shard's torn tail or
// batch-without-End drops exactly as it did with one journal), the
// surviving records are merged by their globally monotonic TIDs, and each
// record applies only if its slot update version is newer than the state
// already in the slot — a record left in one shard's ring must not regress
// a slot that another shard's checkpoint already advanced past it.
//
// Cross-shard transactions add one rule: a recPrepare record — a global
// transaction's slot update in a participant shard — applies iff its TID's
// recGlobalEnd record is durable in the coordinator shard. The end records
// are collected in a first pass over every shard, so per-shard validation
// stays independent otherwise: a torn prepare batch in one shard can never
// drop an unrelated single-shard batch (even one with a higher TID) in
// another.
func (s *SSP) Recover() error {
	s.env.Stats.Recoveries++

	// 1. Load the persistent slot array (including each slot's checkpointed
	// update version), a page of slots at a time. Only the lines NVRAM holds
	// are decoded: a page never written and an all-zero line hold formatted
	// slots (slots.go; no encoded slot is all zeros: a free one has vpn
	// invalidU32, a used one two distinct frames).
	s.resetSlots()
	var page [memsim.PageBytes]byte
	var maxVer uint32
	const perPage = len(page) / slotBytes
	for first := 0; first < s.cfg.Entries; first += perPage {
		if !s.env.Mem.Written(s.slotAddr(first)) {
			continue
		}
		n := min(perPage, s.cfg.Entries-first)
		s.env.Mem.Peek(s.slotAddr(first), page[:n*slotBytes])
		for i := 0; i < n; i++ {
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

	// 2. Scan every journal shard. First pass: collect the durable
	// coordinator end records of cross-shard transactions (and the
	// version/TID high waters). Second pass: validate batch framing per
	// shard, merge the survivors by TID, and replay under the version
	// guard.
	raw := wal.ScanShards(s.env.Mem, s.env.Layout.JournalBase, s.env.Layout.Cfg.JournalBytes)
	var maxTID uint32
	for _, recs := range raw {
		if m := wal.MaxTID(recs); m > maxTID {
			maxTID = m
		}
		for _, r := range recs {
			// Versions and TIDs consumed by dropped batches — including
			// everything the epoch cut below discards — must stay below the
			// next allocation, so this scan covers every record, applied or
			// not.
			if _, st, err := decodeJournalPayload(r.Payload, &s.env.Layout); err == nil && st.ver > maxVer {
				maxVer = st.ver
			}
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
	if s.cfg.DurabilityEpoch > 0 {
		for i, recs := range raw {
			cut := 0
			for j, r := range recs {
				if r.Kind == recEpochSeal {
					cut = j + 1
				}
			}
			for _, r := range recs[cut:] {
				s.env.Stats.DroppedEpochRecords++
				if r.Kind == recUpdateEnd || r.Kind == recGlobalEnd {
					s.env.Stats.LostEpochTxns++
				}
			}
			raw[i] = recs[:cut]
		}
	}

	endTIDs := make(map[uint32]bool)
	for _, recs := range raw {
		for _, r := range recs {
			if r.Kind == recGlobalEnd {
				endTIDs[r.TID] = true
			}
		}
	}
	valid := make([][]wal.Record, len(raw))
	droppedGlobal := make(map[uint32]bool)
	for i, recs := range raw {
		v, err := s.validShardRecords(recs, endTIDs, droppedGlobal)
		if err != nil {
			return err
		}
		valid[i] = v
	}
	// Each sealed global transaction recovered once, each unsealed one
	// rolled back once — regardless of how many shards its records span.
	s.env.Stats.RecoveredTxns += uint64(len(endTIDs))
	s.env.Stats.RolledBackTxns += uint64(len(droppedGlobal))
	for _, r := range wal.Merge(valid) {
		sid, st, err := decodeJournalPayload(r.Payload, &s.env.Layout)
		if err != nil {
			return err
		}
		if sid >= s.cfg.Entries {
			return fmt.Errorf("core: journal record names slot %d of %d", sid, s.cfg.Entries)
		}
		// With sharded journals a record must be newer than the slot's
		// checkpointed state to apply; with the single paper-model journal
		// the stream order is the update order (records carry no version)
		// and every surviving record applies, exactly as before sharding.
		if s.sharded() && st.ver <= s.shadowOf(sid).ver {
			continue // the slot already holds this update (or a newer one)
		}
		s.growSlots(sid + 1)
		s.slotShadow[sid] = st
		s.env.Stats.ReplayedRecords++
	}

	// 3. Roll back interrupted software fall-back transactions (their undo
	// logs live in the per-core log regions).
	for c := range s.fbLogs {
		lrecs := wal.Scan(s.env.Mem, s.env.Layout.LogBase[c], s.env.Layout.Cfg.LogBytes)
		if m := wal.MaxTID(lrecs); m > maxTID {
			maxTID = m
		}
		if len(lrecs) == 0 || lrecs[len(lrecs)-1].Kind == fbKindCommit {
			continue
		}
		for i := len(lrecs) - 1; i >= 0; i-- {
			if lrecs[i].Kind != fbKindData {
				continue
			}
			pa, img := decodeFBPayload(lrecs[i].Payload)
			s.env.Mem.WriteLine(pa, img, 0, stats.CatRecovery)
			s.env.Stats.RecoveryNVWrites++
		}
		s.env.Stats.RolledBackTxns++
	}

	// 4. Rebuild the page table mirror, repair consolidation flips, and
	// build the transient SSP cache: current := committed, refcounts zero.
	// Only the tables' slots are visited: the ones past them are formatted,
	// free and handed out after the stack.
	s.env.PT.Rebuild()
	s.resetEntries()
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
		meta := &pageMeta{
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

// validShardRecords applies one shard's batch-framing semantics: update
// batches survive only through a durable End record (recUpdateEnd, or a
// standalone recEnd sealing the open batch), consolidate/release records
// survive unconditionally, and a global transaction's prepare records
// survive only when endTIDs carries their TID (the coordinator end record
// was durable somewhere). A batch superseded by a new TID mid-stream can
// only be a torn-tail artifact and drops silently; a trailing unsealed
// batch is the crashed transaction and counts as rolled back (§4.1.1).
// Unsealed global TIDs accumulate in droppedGlobal so the caller can count
// each distributed rollback once across all its shards. Shard-local order
// is preserved in the returned slice.
func (s *SSP) validShardRecords(recs []wal.Record, endTIDs, droppedGlobal map[uint32]bool) ([]wal.Record, error) {
	var out []wal.Record
	var batch []wal.Record
	var batchTID uint32
	seal := func() {
		out = append(out, batch...)
		s.env.Stats.RecoveredTxns++
		batch = nil
	}
	for _, r := range recs {
		switch r.Kind {
		case recUpdate:
			if len(batch) > 0 && r.TID != batchTID {
				batch = nil
			}
			batchTID = r.TID
			batch = append(batch, r)
		case recUpdateEnd:
			if len(batch) > 0 && r.TID != batchTID {
				batch = nil
			}
			batchTID = r.TID
			batch = append(batch, r)
			seal()
		case recEnd:
			if len(batch) > 0 && r.TID == batchTID {
				seal()
			}
		case recConsolidate, recRelease:
			out = append(out, r)
		case recPrepare:
			if endTIDs[r.TID] {
				out = append(out, r)
			} else {
				// No durable end record. If the slot array already carries a
				// state at least as new, this prepare is the checkpointed
				// remnant of a COMMITTED global whose coordinator end was
				// truncated (checkpointShard persisted its slots first) —
				// not evidence of a torn transaction. Only a prepare the
				// slot array does not supersede marks a genuine rollback.
				sid, st, err := decodeJournalPayload(r.Payload, &s.env.Layout)
				if err != nil {
					return nil, err
				}
				if st.ver > s.shadowOf(sid).ver {
					droppedGlobal[r.TID] = true
				}
			}
		case recGlobalEnd:
			// The commit point itself; carries no slot state. Its TIDs were
			// collected in the caller's first pass.
		case recEpochSeal:
			// Epoch boundary marker: no slot state, and never inside a batch
			// (a batch is appended whole before any seal can follow it).
			// Nothing to emit.
		default:
			return nil, fmt.Errorf("core: unknown journal record kind %d", r.Kind)
		}
	}
	if len(batch) > 0 {
		s.env.Stats.RolledBackTxns++ // speculative updates discarded (§4.1.1)
	}
	return out, nil
}
