package core

import (
	"testing"

	"repro/internal/txn"
	"repro/internal/wal"
)

// shardEnv is testEnv with a multi-shard metadata journal.
func shardEnv(t *testing.T, cores, shards int) (*txn.Env, *SSP) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Entries = 64
	cfg.ResidentEntries = 64
	return sizedEnv(t, envSize{cores: cores, tlb: 8, heapPages: 512, slots: 64, nvramMB: 24, shards: shards}, cfg)
}

// crashRecover drops volatile hardware state and runs SSP recovery.
func crashRecover(t *testing.T, env *txn.Env, s *SSP) {
	t.Helper()
	s.Crash()
	env.Caches.DropAll()
	for _, tl := range env.TLBs {
		tl.Drop()
	}
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
}

// TestShardRoutingByCore asserts the commit-path shard assignment: core i
// appends its batches to journal shard i mod shards.
func TestShardRoutingByCore(t *testing.T) {
	env, s := shardEnv(t, 3, 2)
	mapPage(env, 0)
	mapPage(env, 1)
	for core := 0; core < 3; core++ {
		s.Begin(core, 0)
		s.Store(core, va(core%2, core), []byte{byte(core + 1)}, 0)
		s.Commit(core, 0)
	}
	// Cores 0 and 2 hit shard 0, core 1 hit shard 1.
	if got := env.Stats.JournalShardRecords[0]; got != 2 {
		t.Errorf("shard 0 records = %d, want 2", got)
	}
	if got := env.Stats.JournalShardRecords[1]; got != 1 {
		t.Errorf("shard 1 records = %d, want 1", got)
	}
	if env.Stats.JournalRecords != 3 {
		t.Errorf("total journal records = %d, want 3", env.Stats.JournalRecords)
	}
}

// TestCrossShardCheckpointDoesNotRegress is the cross-shard recovery
// ordering hazard the slot update version exists for: a slot is updated
// through shard 1 (older) and then shard 0 (newer); shard 0 checkpoints —
// writing the newest state to the persistent slot array and truncating its
// own ring — while shard 1's ring still holds the older record. Recovery's
// TID-merge must not let that surviving stale record regress the
// checkpointed slot.
func TestCrossShardCheckpointDoesNotRegress(t *testing.T) {
	env, s := shardEnv(t, 2, 2)
	mapPage(env, 0)

	// Core 1 commits line 1 of page 0 → record in shard 1.
	s.Begin(1, 0)
	s.Store(1, va(0, 1), []byte{0x11}, 0)
	s.Commit(1, 0)
	// Core 0 commits line 2 of the same page → newer record in shard 0.
	s.Begin(0, 0)
	s.Store(0, va(0, 2), []byte{0x22}, 0)
	s.Commit(0, 0)

	meta := s.metaOf(0)
	wantCommitted := meta.committed
	wantVer := s.slotShadow[meta.slot].ver
	if env.Stats.JournalShardRecords[0] != 1 || env.Stats.JournalShardRecords[1] != 1 {
		t.Fatalf("records not split across shards: %d/%d",
			env.Stats.JournalShardRecords[0], env.Stats.JournalShardRecords[1])
	}

	// Checkpoint shard 0 only: the slot array now carries the newer state;
	// shard 1's older record is still durable in its ring.
	s.checkpointShard(0, 0)

	crashRecover(t, env, s)

	sid := s.metaOf(0).slot
	if s.slotShadow[sid].committed != wantCommitted {
		t.Errorf("recovered committed bitmap %#x, want %#x (stale shard-1 record regressed the checkpoint)",
			s.slotShadow[sid].committed, wantCommitted)
	}
	if s.slotShadow[sid].ver != wantVer {
		t.Errorf("recovered slot version %d, want %d", s.slotShadow[sid].ver, wantVer)
	}
	// Both committed lines are intact.
	var buf [1]byte
	s.Load(0, va(0, 1), buf[:], 0)
	if buf[0] != 0x11 {
		t.Errorf("line 1 lost: %#x", buf[0])
	}
	s.Load(0, va(0, 2), buf[:], 0)
	if buf[0] != 0x22 {
		t.Errorf("line 2 lost: %#x", buf[0])
	}
}

// TestShardRecoveryMergesTIDOrder interleaves commits from two cores across
// two shards and checks that recovery reproduces exactly the final state —
// i.e. the merged TID order is the serial commit order.
func TestShardRecoveryMergesTIDOrder(t *testing.T) {
	env, s := shardEnv(t, 2, 2)
	for vpn := 0; vpn < 4; vpn++ {
		mapPage(env, vpn)
	}
	// Ping-pong commits over shared pages: each commit's batch lands in the
	// committing core's shard, TIDs strictly interleaved across shards.
	for i := 0; i < 12; i++ {
		core := i % 2
		vpn := i % 4
		s.Begin(core, 0)
		s.Store(core, va(vpn, i%64), []byte{byte(i + 1)}, 0)
		s.Commit(core, 0)
	}
	type pageState struct {
		committed uint64
		ver       uint32
	}
	want := map[int]pageState{}
	for vpn := 0; vpn < 4; vpn++ {
		m := s.metaOf(vpn)
		want[vpn] = pageState{committed: m.committed, ver: s.slotShadow[m.slot].ver}
	}

	crashRecover(t, env, s)

	for vpn := 0; vpn < 4; vpn++ {
		m := s.metaOf(vpn)
		if m == nil {
			t.Fatalf("page %d lost its slot after recovery", vpn)
		}
		got := pageState{committed: s.slotShadow[m.slot].committed, ver: s.slotShadow[m.slot].ver}
		if got != want[vpn] {
			t.Errorf("page %d: recovered %+v, want %+v", vpn, got, want[vpn])
		}
	}
	for i := 12 - 4; i < 12; i++ { // last write to each page wins
		var buf [1]byte
		s.Load(0, va(i%4, i%64), buf[:], 0)
		if buf[0] != byte(i+1) {
			t.Errorf("page %d line %d: %d, want %d", i%4, i%64, buf[0], i+1)
		}
	}
}

// TestBarrierFlushChargesMax pins the fan-out rule: with pending
// consolidation records in two DIFFERENT shards, the commit-time metadata
// barrier charges the max of the two independent ring flushes, not their
// sum. (memsim charges each flush's bank time either way; the fence is
// what changes.)
func TestBarrierFlushChargesMax(t *testing.T) {
	env, s := shardEnv(t, 2, 2)
	mapPage(env, 0)
	mapPage(env, 1)
	// Dirty both shards' rings with unflushed records and plant barrier
	// marks on both pages.
	for core := 0; core <= 1; core++ {
		s.Begin(core, 0)
		s.Store(core, va(core, 0), []byte{1}, 0)
		s.Commit(core, 0)
	}
	for core := 0; core <= 1; core++ {
		si := s.shardFor(core)
		st := slotState{vpn: core, ppn0: s.lookupMeta(core).ppn0, ppn1: s.lookupMeta(core).ppn1, ver: s.allocVer()}
		s.appendRecord(si, -1, wal.Record{TID: s.allocTID(), Kind: recConsolidate, Payload: s.journalPayload(s.lookupMeta(core).slot, st)}, s.lookupMeta(core).slot, 0)
		s.lookupMeta(core).barrier = journalRef{shard: si, mark: s.journals[si].MarkHere()}
	}
	soloA := s.journals[0].Flush(0) // measure one shard's flush cost...
	s.journals[0].Reset()
	_ = soloA

	// Re-plant shard 0's record (Reset dropped it) and time the barrier.
	st := slotState{vpn: 0, ppn0: s.lookupMeta(0).ppn0, ppn1: s.lookupMeta(0).ppn1, ver: s.allocVer()}
	s.appendRecord(0, -1, wal.Record{TID: s.allocTID(), Kind: recConsolidate, Payload: s.journalPayload(s.lookupMeta(0).slot, st)}, s.lookupMeta(0).slot, 0)
	s.lookupMeta(0).barrier = journalRef{shard: 0, mark: s.journals[0].MarkHere()}

	done := s.barrierFlush(0, []int{0, 1}, 0, nil)
	// Each ring flush alone costs at least one NVRAM write (~hundreds of
	// cycles). Under the old sum rule the two-shard barrier would charge
	// at least twice a single flush; the max rule stays within ~1.5x.
	if soloA <= 0 {
		t.Fatal("single-shard flush charged no time")
	}
	if done > soloA+soloA/2 {
		t.Errorf("two-shard barrier charged %d cycles, more than 1.5x a single flush (%d): looks like a sum, not a max", done, soloA)
	}
}
