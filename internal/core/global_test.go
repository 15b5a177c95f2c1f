package core

import (
	"testing"

	"repro/internal/memsim"
	"repro/internal/wal"
)

// TestGlobalCommitSpansShards drives the cross-shard two-phase commit:
// a BeginGlobal transaction writing two pages whose slots belong to
// different journal shards must append one prepare record per participant
// shard plus one coordinator end record, and the committed state must
// survive crash recovery's TID-merge.
func TestGlobalCommitSpansShards(t *testing.T) {
	env, s := shardEnv(t, 2, 2)
	mapPage(env, 0)
	mapPage(env, 1)

	// First touch assigns page 0 → slot 0 (shard 0) and page 1 → slot 1
	// (shard 1), so the global write set spans both shards; core 0's
	// coordinator shard is 0.
	s.BeginGlobal(0, 0)
	s.Store(0, va(0, 1), []byte{0xA1}, 0)
	s.Store(0, va(1, 2), []byte{0xB2}, 0)
	s.Commit(0, 0)

	if env.Stats.GlobalCommits != 1 {
		t.Fatalf("GlobalCommits = %d, want 1", env.Stats.GlobalCommits)
	}
	if env.Stats.PrepareRecords != 2 {
		t.Fatalf("PrepareRecords = %d, want 2", env.Stats.PrepareRecords)
	}
	// Shard 0: prepare for page 0 + coordinator end; shard 1: prepare for
	// page 1.
	if got := env.Stats.JournalShardRecords[0]; got != 2 {
		t.Errorf("shard 0 records = %d, want 2 (prepare + end)", got)
	}
	if got := env.Stats.JournalShardRecords[1]; got != 1 {
		t.Errorf("shard 1 records = %d, want 1 (prepare)", got)
	}

	crashRecover(t, env, s)

	var buf [1]byte
	s.Load(0, va(0, 1), buf[:], 0)
	if buf[0] != 0xA1 {
		t.Errorf("page 0 line 1 = %#x, want 0xA1", buf[0])
	}
	s.Load(0, va(1, 2), buf[:], 0)
	if buf[0] != 0xB2 {
		t.Errorf("page 1 line 2 = %#x, want 0xB2", buf[0])
	}
}

// TestGlobalSingleShardDegradesToFastPath: on a single-shard machine a
// BeginGlobal transaction must commit on the exact PR 3 fast path — plain
// update records with the paper's 24-byte payloads, no prepare or end
// records — so JournalShards=1 reproduces all earlier figure metrics.
func TestGlobalSingleShardDegradesToFastPath(t *testing.T) {
	env, s := shardEnv(t, 2, 1)
	mapPage(env, 0)
	mapPage(env, 1)

	s.BeginGlobal(0, 0)
	s.Store(0, va(0, 1), []byte{0x11}, 0)
	s.Store(0, va(1, 1), []byte{0x22}, 0)
	s.Commit(0, 0)

	if env.Stats.GlobalCommits != 0 || env.Stats.PrepareRecords != 0 {
		t.Fatalf("single-shard global commit used the two-phase path: %d commits, %d prepares",
			env.Stats.GlobalCommits, env.Stats.PrepareRecords)
	}
	recs := wal.Scan(env.Mem, env.Layout.JournalBase[0], env.Layout.Cfg.JournalBytes)
	if len(recs) != 2 {
		t.Fatalf("journal holds %d records, want 2", len(recs))
	}
	for i, r := range recs {
		if r.Kind != recUpdate && r.Kind != recUpdateEnd {
			t.Errorf("record %d kind = %d, want update/update-end", i, r.Kind)
		}
		if len(r.Payload) != journalPayloadBytes {
			t.Errorf("record %d payload = %dB, want the paper's %dB", i, len(r.Payload), journalPayloadBytes)
		}
	}

	crashRecover(t, env, s)
	var buf [1]byte
	s.Load(0, va(0, 1), buf[:], 0)
	if buf[0] != 0x11 {
		t.Errorf("page 0 = %#x, want 0x11", buf[0])
	}
}

// TestGlobalTornEndRollsBackAllShards is the distributed all-or-nothing
// contract plus the interleaving hazard of the issue's test checklist: a
// global transaction whose coordinator end record is torn must roll back in
// EVERY participant shard, while an unrelated single-shard batch with a
// higher TID — appended after the global's prepares — must survive
// untouched.
func TestGlobalTornEndRollsBackAllShards(t *testing.T) {
	env, s := shardEnv(t, 2, 2)
	for vpn := 0; vpn < 3; vpn++ {
		mapPage(env, vpn)
	}

	// Baseline commits: page 0 → slot 0 (shard 0), page 1 → slot 1
	// (shard 1), page 2 → slot 2 (shard 0).
	s.Begin(0, 0)
	s.Store(0, va(0, 0), []byte{0xA0}, 0)
	s.Commit(0, 0)
	s.Begin(1, 0)
	s.Store(1, va(1, 0), []byte{0xB0}, 0)
	s.Commit(1, 0)

	// Global transaction from core 1 (coordinator shard 1): prepares land
	// in shard 0 (page 0) and shard 1 (page 1), end in shard 1.
	s.BeginGlobal(1, 0)
	s.Store(1, va(0, 1), []byte{0xA1}, 0)
	s.Store(1, va(1, 1), []byte{0xB1}, 0)
	s.Commit(1, 0)
	if env.Stats.GlobalCommits != 1 {
		t.Fatalf("setup: GlobalCommits = %d, want 1", env.Stats.GlobalCommits)
	}

	// An unrelated single-shard commit with a higher TID, into shard 0.
	s.Begin(0, 0)
	s.Store(0, va(2, 0), []byte{0xC0}, 0)
	s.Commit(0, 0)

	// Tear the coordinator end record: it is the last record in shard 1's
	// stream (header 16 + 4-byte payload, 8-aligned → 24 bytes). Flipping a
	// payload byte fails its checksum, so the scan drops it — exactly what
	// a crash between the prepare flushes and the end flush leaves behind.
	endOff := s.journals[1].Used() - 24
	addr := env.Layout.JournalBase[1] + memsim.PAddr(endOff) + wal.HeaderBytes
	var b [1]byte
	env.Mem.Peek(addr, b[:])
	b[0] ^= 0xFF
	env.Mem.Poke(addr, b[:])

	rolledBefore := env.Stats.RolledBackTxns
	crashRecover(t, env, s)

	if env.Stats.RolledBackTxns != rolledBefore+1 {
		t.Errorf("RolledBackTxns rose by %d, want 1 (the torn global, counted once across shards)",
			env.Stats.RolledBackTxns-rolledBefore)
	}
	var buf [1]byte
	// The global transaction rolled back everywhere…
	s.Load(0, va(0, 1), buf[:], 0)
	if buf[0] != 0 {
		t.Errorf("page 0 line 1 = %#x, want 0 (global write must roll back)", buf[0])
	}
	s.Load(0, va(1, 1), buf[:], 0)
	if buf[0] != 0 {
		t.Errorf("page 1 line 1 = %#x, want 0 (global write must roll back)", buf[0])
	}
	// …the baselines survived…
	s.Load(0, va(0, 0), buf[:], 0)
	if buf[0] != 0xA0 {
		t.Errorf("page 0 baseline = %#x, want 0xA0", buf[0])
	}
	s.Load(0, va(1, 0), buf[:], 0)
	if buf[0] != 0xB0 {
		t.Errorf("page 1 baseline = %#x, want 0xB0", buf[0])
	}
	// …and the unrelated higher-TID single-shard batch was not dropped.
	s.Load(0, va(2, 0), buf[:], 0)
	if buf[0] != 0xC0 {
		t.Errorf("page 2 = %#x, want 0xC0 (higher-TID local batch must survive a torn global)", buf[0])
	}
}

// TestGlobalSurvivesCoordinatorCheckpoint is the checkpoint-interleaving
// hazard of the two-phase protocol: after a global commit, the COORDINATOR
// shard checkpoints (truncating the end record) and its ring is then
// overwritten by a later commit, while a participant shard still holds the
// global's prepare records. Recovery must NOT treat those orphaned prepares
// as a torn transaction — the coordinator checkpoint persisted the
// transaction's slots (all participants) to the slot array first, so the
// version guard supersedes them and the committed state survives intact in
// every shard.
func TestGlobalSurvivesCoordinatorCheckpoint(t *testing.T) {
	env, s := shardEnv(t, 2, 2)
	mapPage(env, 0) // slot 0 → shard 0
	mapPage(env, 1) // slot 1 → shard 1

	// Global from core 0: coordinator shard 0, prepares in shards 0 and 1,
	// end record in shard 0.
	s.BeginGlobal(0, 0)
	s.Store(0, va(0, 1), []byte{0xA1}, 0)
	s.Store(0, va(1, 1), []byte{0xB1}, 0)
	s.Commit(0, 0)
	if env.Stats.GlobalCommits != 1 {
		t.Fatalf("setup: GlobalCommits = %d, want 1", env.Stats.GlobalCommits)
	}

	// Coordinator checkpoint truncates shard 0's ring — end record
	// included. The fix under test: it must also have persisted slot 1
	// (the participant's) to the slot array, not just its own dirty slots.
	s.checkpointShard(0, 0)

	// A later local commit overwrites shard 0's ring from offset zero, so
	// a post-crash scan can no longer reach the old end record.
	s.Begin(0, 0)
	s.Store(0, va(0, 2), []byte{0xA2}, 0)
	s.Commit(0, 0)

	rolledBefore := env.Stats.RolledBackTxns
	crashRecover(t, env, s)

	if env.Stats.RolledBackTxns != rolledBefore {
		t.Errorf("RolledBackTxns rose by %d; a committed, checkpointed global must not count as torn",
			env.Stats.RolledBackTxns-rolledBefore)
	}
	var buf [1]byte
	for _, c := range []struct {
		vpn, line int
		want      byte
	}{
		{0, 1, 0xA1}, {0, 2, 0xA2}, // coordinator-shard page: global + later local
		{1, 1, 0xB1}, // participant-shard page: the half a torn recovery would lose
	} {
		s.Load(0, va(c.vpn, c.line), buf[:], 0)
		if buf[0] != c.want {
			t.Errorf("page %d line %d = %#x, want %#x (global transaction torn by coordinator checkpoint)",
				c.vpn, c.line, buf[0], c.want)
		}
	}
}

// TestGlobalVersionGuardAfterParticipantCheckpoint: a sealed global
// transaction's stale prepare record, still sitting in a participant
// shard's ring, must not regress a slot that another shard's checkpoint
// already advanced past it — the issue's version-guard scenario.
func TestGlobalVersionGuardAfterParticipantCheckpoint(t *testing.T) {
	env, s := shardEnv(t, 3, 3)
	mapPage(env, 0) // P → slot 0 → shard 0
	mapPage(env, 1) // Q → slot 1 → shard 1

	// Baselines establish the slot assignment.
	s.Begin(0, 0)
	s.Store(0, va(0, 0), []byte{0xA0}, 0)
	s.Commit(0, 0)
	s.Begin(1, 0)
	s.Store(1, va(1, 0), []byte{0xB0}, 0)
	s.Commit(1, 0)

	// Global from core 2 (coordinator shard 2): prepare for P in shard 0,
	// stale-to-be prepare for Q in shard 1, end in shard 2 — the end
	// SURVIVES the later checkpoint, so the stale prepare stays applicable
	// and only the version guard can block it.
	s.BeginGlobal(2, 0)
	s.Store(2, va(0, 1), []byte{0xA1}, 0)
	s.Store(2, va(1, 1), []byte{0xB1}, 0)
	s.Commit(2, 0)

	// A newer single-shard update to Q from core 0 lands in shard 0.
	s.Begin(0, 0)
	s.Store(0, va(1, 2), []byte{0xB2}, 0)
	s.Commit(0, 0)

	metaQ := s.metaOf(1)
	wantCommitted := metaQ.committed
	wantVer := s.shadowOf(metaQ.slot).ver

	// Checkpoint shard 0: the persistent slot array now carries Q's newest
	// state (and P's); shard 0's ring truncates. Shard 1 still durably
	// holds the global's older prepare for Q, and shard 2 its end record.
	s.checkpointShard(0, 0)

	crashRecover(t, env, s)

	sid := s.metaOf(1).slot
	if s.shadowOf(sid).committed != wantCommitted {
		t.Errorf("recovered Q committed bitmap %#x, want %#x (stale global prepare regressed the checkpoint)",
			s.shadowOf(sid).committed, wantCommitted)
	}
	if s.shadowOf(sid).ver != wantVer {
		t.Errorf("recovered Q slot version %d, want %d", s.shadowOf(sid).ver, wantVer)
	}
	var buf [1]byte
	for _, c := range []struct {
		vpn, line int
		want      byte
	}{
		{0, 0, 0xA0}, {0, 1, 0xA1}, // P: baseline + global write
		{1, 0, 0xB0}, {1, 1, 0xB1}, {1, 2, 0xB2}, // Q: baseline + global + newer local
	} {
		s.Load(0, va(c.vpn, c.line), buf[:], 0)
		if buf[0] != c.want {
			t.Errorf("page %d line %d = %#x, want %#x", c.vpn, c.line, buf[0], c.want)
		}
	}
}
