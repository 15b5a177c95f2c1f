package crashsweep

import (
	"os"
	"testing"

	"repro/ssp"
)

// TestTrapSweepAllBackends runs the cmd/sspcrash trap-sweep machinery at CI
// scale: for every backend, a few random scripts, a power failure injected
// after every durable NVRAM write, recovery, and all-or-nothing
// verification. The full-scale fuzzing run stays in the binary
// (`sspcrash -scripts 20`); this keeps the crash-recovery contract under
// `go test`.
func TestTrapSweepAllBackends(t *testing.T) {
	scripts, txns := 3, 10
	if testing.Short() {
		scripts, txns = 1, 6
	}
	for _, b := range ssp.Backends() {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			total := 0
			for s := 0; s < scripts; s++ {
				seed := 0xC4A5 + uint64(s)*1000003
				points, bad := SweepScript(b, seed, txns, false, os.Stderr)
				if bad != 0 {
					t.Fatalf("script %d (seed %#x): %d of %d trap points violated the all-or-nothing contract", s, seed, bad, points)
				}
				total += points
			}
			if total == 0 {
				t.Fatal("sweep checked no trap points")
			}
			t.Logf("%d trap points checked", total)
		})
	}
}

// TestTrapSweepJournalShards runs the trap sweep on a multi-core machine
// with per-core SSP journal shards: transactions round-robin across three
// cores, so consecutive commit batches land in three different journal
// rings and the sweep injects power failures at every point between one
// shard's UpdateEnd and another shard's — recovery must TID-merge the
// shards back into a consistent slot array with the all-or-nothing
// contract intact.
func TestTrapSweepJournalShards(t *testing.T) {
	scripts, txns := 2, 10
	if testing.Short() {
		scripts, txns = 1, 6
	}
	for _, shards := range []int{2, 3} {
		cores := shards
		total := 0
		for s := 0; s < scripts; s++ {
			seed := 0x5A4D + uint64(shards)*31 + uint64(s)*1000003
			cfg := ShardedConfig(ssp.SSP, cores, shards)
			points, bad := SweepConfig(cfg, seed, txns, false, os.Stderr)
			if bad != 0 {
				t.Fatalf("%d shards, script %d (seed %#x): %d of %d trap points violated the all-or-nothing contract",
					shards, s, seed, bad, points)
			}
			total += points
		}
		if total == 0 {
			t.Fatalf("%d-shard sweep checked no trap points", shards)
		}
		t.Logf("%d shards: %d trap points checked", shards, total)
	}
}

// TestTrapSweepCrossShard runs the trap sweep on a 4-core, 4-shard machine
// with cross-shard (global) transactions: roughly half of each script's
// transactions open with BeginGlobal and span 2-4 pages whose slots belong
// to different journal shards, so their commits run the two-phase protocol
// — prepare records flushed into every participant shard, then the
// coordinator end record. The sweep cuts the durable write stream at every
// point: between one participant's prepare flush and the next, immediately
// before and after the coordinator end, and between the publication-time
// writes that follow. Recovery must make every global transaction
// all-or-nothing across all of its shards: rolled back everywhere when the
// end record is missing, redone everywhere when it is durable — without
// disturbing interleaved single-shard commits.
func TestTrapSweepCrossShard(t *testing.T) {
	scripts, txns := 2, 10
	if testing.Short() {
		scripts, txns = 1, 6
	}
	const cores, shards = 4, 4
	total := 0
	for s := 0; s < scripts; s++ {
		seed := 0x6C0B + uint64(s)*1000003
		cfg := ShardedConfig(ssp.SSP, cores, shards)
		sc := MakeCrossScript(seed, txns)
		globals := 0
		for i := range sc.Txns {
			if sc.global(i) {
				globals++
			}
		}
		if globals == 0 {
			t.Fatalf("script %d has no global transactions", s)
		}
		// The sweep is only meaningful if the script genuinely drives the
		// two-phase path on this machine (global write sets spanning shards).
		ref := ssp.MustNew(cfg)
		RunScript(ref, sc)
		ref.Drain()
		if ref.Stats().GlobalCommits == 0 {
			t.Fatalf("script %d (seed %#x) committed no cross-shard transactions", s, seed)
		}
		points, bad := SweepScriptConfig(cfg, sc, false, os.Stderr)
		if bad != 0 {
			t.Fatalf("script %d (seed %#x): %d of %d trap points violated the all-or-nothing contract",
				s, seed, bad, points)
		}
		total += points
	}
	if total == 0 {
		t.Fatal("cross-shard sweep checked no trap points")
	}
	t.Logf("%d trap points checked", total)
}

// TestTrapSweepCrossShardCheckpoints is the checkpoint-interleaved class of
// cross-shard crash points: with tiny 1 KiB journal rings the script's
// commits push shards past their high-water mark mid-run, so trap points
// fall between a coordinator shard's checkpoint (which truncates global end
// records) and the participant shards that still hold the matching prepare
// records. A committed global transaction must survive — the coordinator
// checkpoint persists its participant slots before the end record goes
// away. (This sweep class is what catches end-record truncation bugs the
// plain sweep above cannot: there the rings never fill.)
func TestTrapSweepCrossShardCheckpoints(t *testing.T) {
	scripts, txns := 2, 30
	if testing.Short() {
		scripts, txns = 1, 30
	}
	const cores, shards = 4, 4
	total := 0
	for s := 0; s < scripts; s++ {
		seed := 0xCC99 + uint64(s)*1000003
		cfg := ShardedConfig(ssp.SSP, cores, shards)
		cfg.JournalKB = 1 // high-water after ~16 records: checkpoints mid-script
		sc := MakeCrossScript(seed, txns)
		ref := ssp.MustNew(cfg)
		RunScript(ref, sc)
		ref.Drain()
		if st := ref.Stats(); st.Checkpoints == 0 || st.GlobalCommits == 0 {
			t.Fatalf("script %d (seed %#x) drove %d checkpoints / %d global commits; the sweep needs both",
				s, seed, st.Checkpoints, st.GlobalCommits)
		}
		points, bad := SweepScriptConfig(cfg, sc, false, os.Stderr)
		if bad != 0 {
			t.Fatalf("script %d (seed %#x): %d of %d trap points violated the all-or-nothing contract",
				s, seed, bad, points)
		}
		total += points
	}
	t.Logf("%d checkpoint-interleaved trap points checked", total)
}

// TestCrossScriptExercisesTwoPhase asserts the cross script actually drives
// the two-phase protocol on the sharded machine (otherwise the sweep above
// would vacuously pass sweeping only fast-path commits).
func TestCrossScriptExercisesTwoPhase(t *testing.T) {
	cfg := ShardedConfig(ssp.SSP, 4, 4)
	m := ssp.MustNew(cfg)
	RunScript(m, MakeCrossScript(0xBEE5, 12))
	m.Drain()
	st := m.Stats()
	if st.GlobalCommits == 0 {
		t.Fatal("cross script committed no global transactions via the two-phase protocol")
	}
	if st.PrepareRecords < 2*st.GlobalCommits {
		t.Fatalf("prepare records %d < 2x global commits %d: global write sets did not span shards",
			st.PrepareRecords, st.GlobalCommits)
	}
}

// TestTrapSweepBuffered is the DRAM-buffer-tier crash class: the script
// runs with 16 buffer frames in front of a 64 KiB L3 while a
// non-transactional spray keeps the tier churning, so trap points fall
// inside every buffer window — after a dirty absorb (the absorbed line is
// DRAM-only and legally lost), between a frame eviction's write-backs, and
// around the commit fence's write-throughs. Committed transactions must
// survive every cut with the tier in the path; a second class stacks a
// DurabilityEpoch on top.
func TestTrapSweepBuffered(t *testing.T) {
	scripts, txns := 1, 10 // the spray makes each sweep ~8x a plain script's
	if testing.Short() {
		scripts, txns = 1, 6
	}
	epoch := BufferedConfig(ssp.SSP)
	epoch.DurabilityEpoch = 30000
	classes := []struct {
		name string
		cfg  ssp.Config
		seed uint64
	}{
		{"plain", BufferedConfig(ssp.SSP), 0xB0F1},
		{"epoch", epoch, 0xB0F3},
	}
	for _, cl := range classes {
		cl := cl
		t.Run(cl.name, func(t *testing.T) {
			total := 0
			for s := 0; s < scripts; s++ {
				seed := cl.seed + uint64(s)*1000003
				sc := MakeScript(seed, txns)
				// The sweep is only meaningful if the run genuinely drives
				// the buffer windows: dirty absorbs and frame-eviction
				// write-backs must both occur.
				ref := ssp.MustNew(cl.cfg)
				RunScriptBuffered(ref, sc)
				ref.Drain()
				st := ref.Stats()
				if st.DRAMCacheAbsorbed == 0 || st.DRAMCacheWriteBacks == 0 {
					t.Fatalf("script %d (seed %#x) drove %d absorbs / %d write-backs; the sweep needs both",
						s, seed, st.DRAMCacheAbsorbed, st.DRAMCacheWriteBacks)
				}
				points, bad := SweepBufferedScript(cl.cfg, sc, false, os.Stderr)
				if bad != 0 {
					t.Fatalf("script %d (seed %#x): %d of %d trap points violated the all-or-nothing contract",
						s, seed, bad, points)
				}
				total += points
			}
			if total == 0 {
				t.Fatal("buffered sweep checked no trap points")
			}
			t.Logf("%s: %d trap points checked", cl.name, total)
		})
	}
}

// TestVerifyCatchesCorruption guards the verifier itself: a machine whose
// durable state was tampered with must fail verification.
func TestVerifyCatchesCorruption(t *testing.T) {
	sc := MakeScript(7, 5)
	m := ssp.MustNew(Config(ssp.SSP))
	committed, _ := RunScript(m, sc)
	m.Drain()
	if len(committed) == 0 {
		t.Skip("script committed nothing")
	}
	if err := Verify(m, committed, nil); err != nil {
		t.Fatalf("clean run failed verification: %v", err)
	}
	va := sortedAddrs(committed)[0]
	c := m.Core(0)
	c.Begin()
	c.Store64(va, 0xDEAD)
	c.Commit()
	if err := Verify(m, committed, nil); err == nil {
		t.Fatal("verifier accepted corrupted state")
	}
}

// TestTrapSweepRelaxed trap-sweeps the relaxed-durability commit mode
// (CommitRelaxed + epoch hardening): power failure after every durable
// NVRAM write, recovery with the epoch cut, and the relaxed contract
// verified — every transaction atomic, losses a per-shard suffix of the
// acknowledgment order (at most the open epoch, never torn), everything
// behind a completed Sync durable, and nothing invented. Classes cover the
// single-core machine, a short epoch (inline age-bound hardens dominate)
// and journal shards.
func TestTrapSweepRelaxed(t *testing.T) {
	txns := 12
	if testing.Short() {
		txns = 8
	}
	classes := []struct {
		name  string
		cfg   ssp.Config
		epoch int
		seed  uint64
	}{
		{"local", Config(ssp.SSP), 30000, 0x3E1A},
		{"short-epoch", Config(ssp.SSP), 4000, 0x3E1B},
		{"shards", ShardedConfig(ssp.SSP, 3, 3), 30000, 0x3E1C},
	}
	for _, cl := range classes {
		cl := cl
		t.Run(cl.name, func(t *testing.T) {
			cfg := cl.cfg
			cfg.DurabilityEpoch = cl.epoch
			sc := MakeRelaxedScript(cl.seed, txns, false)

			// The sweep is only meaningful if the script drives the relaxed
			// machinery, and an uncrashed run must lose nothing: after Drain
			// every acknowledged transaction is durable.
			ref := ssp.MustNew(cfg)
			out := RunScriptRelaxed(ref, sc)
			ref.Drain()
			if st := ref.Stats(); st.RelaxedCommits == 0 || st.HardenedEpochs == 0 {
				t.Fatalf("reference run drove %d relaxed commits / %d hardened epochs; the sweep needs both",
					st.RelaxedCommits, st.HardenedEpochs)
			}
			out.SyncFloor = len(sc.Txns) - 1 // Drain = Sync over everything
			if err := VerifyRelaxed(ref, cfg, sc, out); err != nil {
				t.Fatalf("uncrashed reference run: %v", err)
			}

			points, bad := SweepRelaxedScript(cfg, sc, false, os.Stderr)
			if bad != 0 {
				t.Fatalf("%s (seed %#x): %d of %d trap points violated the relaxed contract",
					cl.name, cl.seed, bad, points)
			}
			if points == 0 {
				t.Fatalf("%s sweep checked no trap points", cl.name)
			}
			t.Logf("%s: %d trap points checked", cl.name, points)
		})
	}
}

// TestTrapSweepCrossRelaxed is the cross-shard relaxed class: global
// transactions committed with CommitRelaxed leave their participant
// prepares eagerly sealed but defer the coordinator End record into the
// coordinator shard's OPEN epoch. The sweep therefore cuts the write
// stream between a participant's durable prepare seal and the coordinator
// epoch's harden — recovery must treat the durably-prepared transaction as
// absent on EVERY shard (the end TIDs are collected from the cut record
// lists), and a later Sync or age-bound harden must flip it to durable on
// every shard at once.
func TestTrapSweepCrossRelaxed(t *testing.T) {
	txns := 12
	if testing.Short() {
		txns = 8
	}
	const cores, shards = 4, 4
	cfg := ShardedConfig(ssp.SSP, cores, shards)
	cfg.DurabilityEpoch = 30000
	total := 0
	for s := 0; s < 2; s++ {
		seed := 0x3E2A + uint64(s)*1000003
		sc := MakeRelaxedScript(seed, txns, true)
		ref := ssp.MustNew(cfg)
		RunScriptRelaxed(ref, sc)
		ref.Drain()
		st := ref.Stats()
		if st.GlobalCommits == 0 || st.HardenedEpochs == 0 {
			t.Fatalf("script %d (seed %#x) drove %d global commits / %d hardened epochs; the sweep needs both",
				s, seed, st.GlobalCommits, st.HardenedEpochs)
		}
		if st.PrepareRecords < 2*st.GlobalCommits {
			t.Fatalf("prepare records %d < 2x global commits %d: global write sets did not span shards",
				st.PrepareRecords, st.GlobalCommits)
		}
		points, bad := SweepRelaxedScript(cfg, sc, false, os.Stderr)
		if bad != 0 {
			t.Fatalf("script %d (seed %#x): %d of %d trap points violated the relaxed contract",
				s, seed, bad, points)
		}
		total += points
	}
	if total == 0 {
		t.Fatal("cross-relaxed sweep checked no trap points")
	}
	t.Logf("%d trap points checked", total)
}

// TestTrapSweepCommitKnobs sweeps the synchronous commit path across the
// configuration knobs that shape it, each class on its own seed: one core,
// journal shards, cross-shard commits, epoch seals inside every journal
// leg (DurabilityEpoch with synchronous commits), and the
// checkpoint-interleaved tiny-ring class.
func TestTrapSweepCommitKnobs(t *testing.T) {
	txns := 10
	if testing.Short() {
		txns = 6
	}
	classes := []struct {
		name  string
		cfg   ssp.Config
		cross bool
		seed  uint64
	}{
		{"local", Config(ssp.SSP), false, 0xEA60},
		{"shards", ShardedConfig(ssp.SSP, 3, 3), false, 0xEA61},
		{"cross", ShardedConfig(ssp.SSP, 4, 4), true, 0xEA62},
	}
	for _, cl := range classes {
		cl := cl
		t.Run(cl.name, func(t *testing.T) {
			var points, bad int
			if cl.cross {
				points, bad = SweepCrossConfig(cl.cfg, cl.seed, txns, false, os.Stderr)
			} else {
				points, bad = SweepConfig(cl.cfg, cl.seed, txns, false, os.Stderr)
			}
			if bad != 0 {
				t.Fatalf("%s (seed %#x): %d of %d trap points violated the all-or-nothing contract", cl.name, cl.seed, bad, points)
			}
			if points == 0 {
				t.Fatalf("%s sweep checked no trap points", cl.name)
			}
			t.Logf("%s: %d trap points checked", cl.name, points)
		})
	}
	t.Run("epoch", func(t *testing.T) {
		// DurabilityEpoch on with SYNCHRONOUS commits: Commit stays
		// synchronous regardless, but every explicit flush now appends an
		// epoch-seal record first, adding trap points inside each commit's
		// journal leg. The strict contract still applies: everything
		// committed survives every cut.
		cfg := ShardedConfig(ssp.SSP, 3, 3)
		cfg.DurabilityEpoch = 30000
		points, bad := SweepConfig(cfg, 0xEA63, txns, false, os.Stderr)
		if bad != 0 {
			t.Fatalf("epoch (seed 0xEA63): %d of %d trap points violated the all-or-nothing contract", bad, points)
		}
		if points == 0 {
			t.Fatal("epoch sweep checked no trap points")
		}
		t.Logf("epoch: %d trap points checked", points)
	})
	t.Run("checkpoints", func(t *testing.T) {
		cfg := ShardedConfig(ssp.SSP, 4, 4)
		cfg.JournalKB = 1 // high-water after ~16 records: checkpoints mid-script
		seed := uint64(0xCCEA)
		sc := MakeCrossScript(seed, 30)
		ref := ssp.MustNew(cfg)
		RunScript(ref, sc)
		ref.Drain()
		if st := ref.Stats(); st.Checkpoints == 0 || st.GlobalCommits == 0 {
			t.Fatalf("script drove %d checkpoints / %d global commits; the sweep needs both", st.Checkpoints, st.GlobalCommits)
		}
		points, bad := SweepScriptConfig(cfg, sc, false, os.Stderr)
		if bad != 0 {
			t.Fatalf("(seed %#x): %d of %d trap points violated the all-or-nothing contract", seed, bad, points)
		}
		t.Logf("checkpoints: %d trap points checked", points)
	})
}
