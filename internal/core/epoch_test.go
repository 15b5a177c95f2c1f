package core

import (
	"testing"

	"repro/internal/engine"
)

// Tests for the relaxed-durability epoch engine's accounting identities.
// The crash classes proper (every trap point, cross-shard epochs) are swept
// by internal/crashsweep; these pin the deterministic counter contracts.

// TestSyncCommitWaitsForRelaxedFlushes pins the under-wait rule of the
// synchronous data fence: a relaxed commit issues its data flushes without
// fencing on them (flushData in relaxed mode) and records their completion
// in the page's flushDone. A synchronous Commit on the same page from a
// core whose clock is far behind must not return before those flushes
// land, or its commit point would precede durable data its committed
// bitmap covers. The Sync in between hardens the relaxed epoch first, so
// neither the second commit's metadata barrier nor its shard harden waits
// on the relaxed fence: flushData's flushDone check is the only wait left.
func TestSyncCommitWaitsForRelaxedFlushes(t *testing.T) {
	env, s := testEnv(t, 2)
	s.cfg.DurabilityEpoch = 1 << 30 // only the explicit Sync hardens
	mapPage(env, 0)

	const late = engine.Cycles(1_000_000)
	at := s.Begin(0, late)
	for line := 0; line < 8; line++ {
		at = s.Store(0, va(0, line), []byte{byte(line + 1)}, at)
	}
	at = s.CommitRelaxed(0, at)
	relaxedDone := s.metaOf(0).flushDone
	if relaxedDone <= late {
		t.Fatalf("relaxed commit recorded flushDone %d, want past its start %d", relaxedDone, late)
	}
	s.Sync(0, at)

	t1 := s.Begin(1, 0)
	t1 = s.Store(1, va(0, 40), []byte{0xEE}, t1)
	if t1 >= relaxedDone {
		t.Fatalf("core 1 reached commit at %d, not behind the relaxed flushes (%d)", t1, relaxedDone)
	}
	if end := s.Commit(1, t1); end < relaxedDone {
		t.Errorf("sync commit on the page returned at %d, before the relaxed commit's data flushes landed at %d", end, relaxedDone)
	}
}

// TestEpochAccountingIdentity drives the relaxed path through a Sync and a
// crash and checks the loss accounting: acknowledged transactions before
// the Sync all survive, the unhardened suffix is lost whole and in order
// (a relaxed loss is always a suffix of one core's ack order), and the
// counters bound each other as documented on stats.Stats.
func TestEpochAccountingIdentity(t *testing.T) {
	env, s := testEnv(t, 1)
	s.cfg.DurabilityEpoch = 1 << 20 // far beyond the script: only Sync hardens
	mapPage(env, 0)

	const synced, unsynced = 5, 7
	total := synced + unsynced
	at := engine.Cycles(0)
	for i := 0; i < total; i++ {
		s.Begin(0, at)
		// Two lines per transaction so a torn survivor is detectable.
		s.Store(0, va(0, 2*i), []byte{byte(i + 1)}, at)
		s.Store(0, va(0, 2*i+1), []byte{byte(i + 1)}, at)
		at = s.CommitRelaxed(0, at)
		if i == synced-1 {
			at = s.Sync(0, at)
		}
	}
	if got := env.Stats.RelaxedCommits; got != uint64(total) {
		t.Fatalf("RelaxedCommits = %d, want %d", got, total)
	}
	if env.Stats.HardenedEpochs == 0 {
		t.Fatal("Sync hardened no epoch")
	}

	crashRecover(t, env, s)

	survivors := 0
	prefix := true
	for i := 0; i < total; i++ {
		var a, b [1]byte
		s.Load(0, va(0, 2*i), a[:], 0)
		s.Load(0, va(0, 2*i+1), b[:], 0)
		switch {
		case a[0] == byte(i+1) && b[0] == byte(i+1):
			if !prefix {
				t.Fatalf("transaction %d survived after an earlier loss: relaxed losses must be a suffix", i)
			}
			survivors++
		case a[0] == 0 && b[0] == 0:
			prefix = false
		default:
			t.Fatalf("transaction %d torn: lines %#x/%#x", i, a[0], b[0])
		}
	}
	if survivors < synced {
		t.Fatalf("only %d survivors; the %d transactions behind the Sync must all survive", survivors, synced)
	}
	st := env.Stats
	if uint64(survivors)+st.LostEpochTxns > uint64(total) {
		t.Errorf("survivors %d + LostEpochTxns %d exceed %d acknowledged", survivors, st.LostEpochTxns, total)
	}
	if st.DroppedEpochRecords < st.LostEpochTxns {
		t.Errorf("DroppedEpochRecords %d < LostEpochTxns %d", st.DroppedEpochRecords, st.LostEpochTxns)
	}
	t.Logf("%d acknowledged: %d survived, %d lost (%d with durable trace)",
		total, survivors, total-survivors, st.LostEpochTxns)
}

// TestHardenIdleDrainsOpenEpoch pins the idle-hardener contract: a shard
// whose core went idle right after a relaxed commit holds an open dirty
// epoch indefinitely (the age bound is only checked when the NEXT commit
// arrives); HardenIdle closes it without a Sync, making the acknowledged
// data crash-durable, and a second call finds nothing to do.
func TestHardenIdleDrainsOpenEpoch(t *testing.T) {
	env, s := testEnv(t, 1)
	s.cfg.DurabilityEpoch = 1 << 20 // no commit-path hardening in this script
	mapPage(env, 0)

	at := engine.Cycles(0)
	s.Begin(0, at)
	s.Store(0, va(0, 0), []byte{0xAB}, at)
	at = s.CommitRelaxed(0, at)

	done, hardened := s.HardenIdle(0, at)
	if !hardened {
		t.Fatal("HardenIdle found no open dirty epoch after a relaxed commit")
	}
	if done < at {
		t.Errorf("HardenIdle completion %d precedes its start %d", done, at)
	}
	if _, again := s.HardenIdle(0, done); again {
		t.Error("second HardenIdle hardened an already-clean shard")
	}
	if env.Stats.HardenedEpochs == 0 {
		t.Fatal("HardenIdle hardened no epoch in the stats")
	}

	crashRecover(t, env, s)
	var b [1]byte
	s.Load(0, va(0, 0), b[:], 0)
	if b[0] != 0xAB {
		t.Fatalf("idle-hardened commit lost across crash: %#x", b[0])
	}
}

// TestHardenIdleRequiresEpochMode: with strict durability (DurabilityEpoch
// 0) every commit is already durable at its fence, so HardenIdle must be a
// no-op.
func TestHardenIdleRequiresEpochMode(t *testing.T) {
	env, s := testEnv(t, 1)
	mapPage(env, 0)
	s.Begin(0, 0)
	s.Store(0, va(0, 0), []byte{1}, 0)
	s.Commit(0, 0)
	if _, hardened := s.HardenIdle(0, 0); hardened {
		t.Error("HardenIdle reported work in strict-durability mode")
	}
}

// TestEpochAgeBoundHardens pins the epoch-length contract itself: with no
// Sync at all, an epoch hardens once its age reaches DurabilityEpoch, so a
// long-running relaxed workload still becomes durable in bounded lag.
func TestEpochAgeBoundHardens(t *testing.T) {
	env, s := testEnv(t, 1)
	s.cfg.DurabilityEpoch = 2000
	mapPage(env, 0)

	at := engine.Cycles(0)
	for i := 0; i < 40; i++ {
		s.Begin(0, at)
		s.Store(0, va(0, i%64), []byte{byte(i + 1)}, at)
		at = s.CommitRelaxed(0, at)
	}
	if env.Stats.HardenedEpochs == 0 {
		t.Fatalf("no epoch hardened over %d cycles with a 2000-cycle bound", at)
	}
	if env.Stats.EpochHardenLag == 0 {
		t.Error("hardened epochs accumulated no lag")
	}
}
