package ssp

import (
	"testing"
)

// TestRelaxedCommitRoundTrip exercises the public relaxed-durability
// surface end to end: CommitRelaxed acknowledges, Sync upgrades to durable,
// and a crash after the Sync keeps every synced transaction while losing an
// acknowledged-but-unhardened one atomically.
func TestRelaxedCommitRoundTrip(t *testing.T) {
	cfg := Config{Backend: SSP, Cores: 1, DurabilityEpoch: 500_000}
	m := MustNew(cfg)
	c := m.Core(0)
	m.Heap().EnsureMapped(nil, 1, 2)
	page := uint64(HeapBase) + uint64(PageBytes)

	for i := 0; i < 8; i++ {
		c.Begin()
		c.Store64(page+uint64(i)*8, uint64(i+1))
		c.CommitRelaxed()
	}
	c.Sync()
	st := m.Stats()
	if st.RelaxedCommits != 8 {
		t.Fatalf("RelaxedCommits = %d, want 8", st.RelaxedCommits)
	}
	if st.HardenedEpochs == 0 || st.EpochSeals == 0 {
		t.Fatalf("Sync hardened no epoch (hardened %d, seals %d)", st.HardenedEpochs, st.EpochSeals)
	}

	// One more relaxed commit with no Sync behind it: the crash may lose it,
	// but only whole.
	c.Begin()
	c.Store64(page+512, 0xDEAD)
	c.CommitRelaxed()

	img := m.Crash()
	m2, err := Restore(cfg, img)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	c2 := m2.Core(0)
	m2.Heap().EnsureMapped(nil, 1, 2)
	for i := 0; i < 8; i++ {
		if got := c2.Load64(page + uint64(i)*8); got != uint64(i+1) {
			t.Fatalf("synced transaction %d lost or torn: read %#x", i, got)
		}
	}
	if got := c2.Load64(page + 512); got != 0 && got != 0xDEAD {
		t.Fatalf("unhardened transaction torn: read %#x", got)
	}
}

// TestRelaxedDisabledIsSynchronous pins the DurabilityEpoch = 0 contract on
// every backend: BeginGlobal is Begin and CommitRelaxed is Commit bit for
// bit (same clock, same traffic, same journal activity). HardenIdle finds
// nothing to harden and charges nothing; Sync charges one operation on SSP
// and nothing on the logging designs, which persist at every commit.
func TestRelaxedDisabledIsSynchronous(t *testing.T) {
	type outcome struct {
		clock                 Cycles
		writes, recs, relaxed uint64
	}
	run := func(b Backend, global, relaxed bool) outcome {
		m := MustNew(Config{Backend: b, Cores: 1})
		c := m.Core(0)
		m.Heap().EnsureMapped(nil, 1, 2)
		for i := 0; i < 32; i++ {
			if global {
				c.BeginGlobal()
			} else {
				c.Begin()
			}
			c.Store64(HeapBase+PageBytes+uint64(i%16)*64, uint64(i))
			if relaxed {
				c.CommitRelaxed()
			} else {
				c.Commit()
			}
		}
		m.Drain()
		st := m.Stats()
		return outcome{c.Now(), st.NVRAMWriteLines, st.JournalRecords, st.RelaxedCommits}
	}
	for _, b := range Backends() {
		t.Run(b.String(), func(t *testing.T) {
			want := run(b, false, false)
			for _, v := range []struct {
				name            string
				global, relaxed bool
			}{{"BeginGlobal", true, false}, {"CommitRelaxed", false, true}} {
				if got := run(b, v.global, v.relaxed); got != want {
					t.Errorf("%s diverged from Begin/Commit: clock %d vs %d, writes %d vs %d, records %d vs %d, relaxed commits %d",
						v.name, got.clock, want.clock, got.writes, want.writes, got.recs, want.recs, got.relaxed)
				}
			}

			m := MustNew(Config{Backend: b, Cores: 1})
			c := m.Core(0)
			before := c.Now()
			if c.HardenIdle() {
				t.Error("HardenIdle hardened an epoch with the relaxed mode off")
			}
			if c.Now() != before {
				t.Errorf("HardenIdle moved the clock %d -> %d", before, c.Now())
			}
			var syncCost Cycles
			if b == SSP {
				syncCost = m.Config().OpCycles
			}
			c.Sync()
			if got := c.Now() - before; got != syncCost {
				t.Errorf("Sync cost %d cycles, want %d", got, syncCost)
			}
		})
	}
}
