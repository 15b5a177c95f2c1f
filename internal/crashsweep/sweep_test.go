package crashsweep

import (
	"os"
	"slices"
	"strings"
	"testing"

	"repro/ssp"
)

// Each TestTrapSweep<family> sweeps the rows of Classes whose name starts
// with that family: every row on every backend, one subtest per row (when
// the name has a "/") and per backend, every seed of the row (the first
// only under -short). The full-scale fuzzing run stays in the binary
// (`sspcrash -scripts 20`).
func TestTrapSweepAllBackends(t *testing.T)             { sweepFamily(t, "AllBackends") }
func TestTrapSweepJournalShards(t *testing.T)           { sweepFamily(t, "JournalShards") }
func TestTrapSweepCrossShard(t *testing.T)              { sweepFamily(t, "CrossShard") }
func TestTrapSweepCrossShardCheckpoints(t *testing.T)   { sweepFamily(t, "CrossShardCheckpoints") }
func TestTrapSweepCommitKnobs(t *testing.T)             { sweepFamily(t, "CommitKnobs") }
func TestTrapSweepBuffered(t *testing.T)                { sweepFamily(t, "Buffered") }
func TestTrapSweepRelaxed(t *testing.T)                 { sweepFamily(t, "Relaxed") }
func TestTrapSweepCrossRelaxed(t *testing.T)            { sweepFamily(t, "CrossRelaxed") }
func TestTrapSweepCrossRelaxedCheckpoints(t *testing.T) { sweepFamily(t, "CrossRelaxedCheckpoints") }
func TestTrapSweepWindowed(t *testing.T)                { sweepFamily(t, "Windowed") }
func TestTrapSweepConsolidation(t *testing.T)           { sweepFamily(t, "Consolidation") }
func TestTrapSweepFallback(t *testing.T)                { sweepFamily(t, "Fallback") }
func TestTrapSweepSubPage(t *testing.T)                 { sweepFamily(t, "SubPage") }

// drives is, per family, what the SSP reference run of every seed must
// drive for the sweep to cover the mechanism the class is named after.
var drives = map[string]struct {
	what string
	ok   func(st *ssp.Stats) bool
}{
	"CrossShard": {"global commits", func(st *ssp.Stats) bool { return st.GlobalCommits > 0 }},
	"CrossShardCheckpoints": {"checkpoints and global commits", func(st *ssp.Stats) bool {
		return st.Checkpoints > 0 && st.GlobalCommits > 0
	}},
	"Buffered": {"DRAM absorbs and write-backs", func(st *ssp.Stats) bool {
		return st.DRAMCacheAbsorbed > 0 && st.DRAMCacheWriteBacks > 0
	}},
	"Relaxed": {"relaxed commits and hardened epochs", func(st *ssp.Stats) bool {
		return st.RelaxedCommits > 0 && st.HardenedEpochs > 0
	}},
	"CrossRelaxed": {"global commits spanning shards and hardened epochs", func(st *ssp.Stats) bool {
		return st.GlobalCommits > 0 && st.HardenedEpochs > 0 && st.PrepareRecords >= 2*st.GlobalCommits
	}},
	"CrossRelaxedCheckpoints": {"checkpoints, global commits and hardened epochs", func(st *ssp.Stats) bool {
		return st.Checkpoints > 0 && st.GlobalCommits > 0 && st.HardenedEpochs > 0
	}},
	"Consolidation": {"consolidations", func(st *ssp.Stats) bool { return st.Consolidations > 0 }},
	"Fallback":      {"fall-back transactions", func(st *ssp.Stats) bool { return st.FallbackTxns > 0 }},
	"SubPage": {"consolidations copying whole 4-line sub-pages", func(st *ssp.Stats) bool {
		return st.Consolidations > 0 && st.ConsolidatedLines > 0 && st.ConsolidatedLines%4 == 0
	}},
}

// TestClassTableDrivesEveryMechanism holds the class table to the crash
// contracts: summed over the SSP reference runs of every row and seed,
// each counter of a mechanism a contract names is non-zero. Spills of
// speculative lines and aborts need per-core op scripts (ROADMAP item 9),
// which no row has yet; they are listed as expected zero, so a row that
// starts driving one fails here until the counter moves to the driven
// list, and dropping one from either list is a visible edit.
func TestClassTableDrivesEveryMechanism(t *testing.T) {
	var sum ssp.Stats
	for _, cl := range Classes {
		cfg := cl.Config
		cfg.Backend = ssp.SSP
		for _, seed := range cl.Seeds {
			m := ssp.MustNew(cfg)
			run(m, cl.Script(seed, cl.Txns))
			m.Drain()
			sum.Add(m.Stats())
		}
	}
	driven := []struct {
		name string
		n    uint64
	}{
		{"Consolidations", sum.Consolidations},
		{"FallbackTxns", sum.FallbackTxns},
		{"Checkpoints", sum.Checkpoints},
		{"GlobalCommits", sum.GlobalCommits},
		{"HardenedEpochs", sum.HardenedEpochs},
		{"DRAMCacheWriteBacks", sum.DRAMCacheWriteBacks},
	}
	for _, c := range driven {
		if c.n == 0 {
			t.Errorf("no row of the class table drives %s", c.name)
		}
	}
	undriven := []struct {
		name, why string
		n         uint64
	}{
		{"TxLineSpills", "needs ROADMAP item 9's Spill op", sum.TxLineSpills},
		{"Aborts", "needs ROADMAP item 9's Abort op", sum.Aborts},
	}
	for _, c := range undriven {
		if c.n != 0 {
			t.Errorf("the class table drives %s (%d), listed as expected zero (%s): move it to the driven list", c.name, c.n, c.why)
		}
	}
}

func sweepFamily(t *testing.T, family string) {
	t.Parallel()
	n := 0
	for _, cl := range Classes {
		fam, row, _ := strings.Cut(cl.Name, "/")
		if fam != family {
			continue
		}
		n++
		if row == "" {
			sweepClass(t, cl, family)
		} else {
			t.Run(row, func(t *testing.T) { sweepClass(t, cl, family) })
		}
	}
	if n == 0 {
		t.Fatalf("no class in family %q", family)
	}
}

func sweepClass(t *testing.T, cl Class, family string) {
	seeds := cl.Seeds
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, b := range ssp.Backends() {
		t.Run(b.String(), func(t *testing.T) {
			t.Parallel()
			cfg := cl.Config
			cfg.Backend = b
			for _, seed := range seeds {
				sc := cl.Script(seed, cl.Txns)
				sc.Class = cl.Name
				if need, ok := drives[family]; ok && b == ssp.SSP {
					m := ssp.MustNew(cfg)
					run(m, sc)
					m.Drain()
					if !need.ok(m.Stats()) {
						t.Fatalf("seed %#x: the reference run drives no %s; the sweep needs them", seed, need.what)
					}
				}
				points, nested, bad := Sweep(cfg, sc, os.Stderr)
				if bad != 0 {
					t.Fatalf("seed %#x: %d of %d trap points (%d nested) violated the contract", seed, bad, points+nested, nested)
				}
				if points == 0 {
					t.Fatalf("seed %#x: the sweep checked no trap points", seed)
				}
				t.Logf("%s %v seed %#x: %d trap points, %d nested cuts", cl.Name, b, seed, points, nested)
			}
		})
	}
}

// TestCrossScriptExercisesTwoPhase asserts the cross script actually drives
// the two-phase protocol on the sharded machine (otherwise the sweep above
// would vacuously pass sweeping only fast-path commits).
func TestCrossScriptExercisesTwoPhase(t *testing.T) {
	m := ssp.MustNew(machine(4, 4, 0))
	RunScript(m, makeCrossScript(0xBEE5, 12))
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

// TestWindowedRunDeterministic double-checks the concurrent sweep's
// foundation directly: two reference runs of the same script on the same
// config produce the same durable NVRAM write count (the trap-point space)
// and the same final stats.
func TestWindowedRunDeterministic(t *testing.T) {
	cfg := machine(4, 2, 50000)
	sc := mode(false, true)(0xD37, 12)
	once := func() (uint64, ssp.Stats) {
		m := ssp.MustNew(cfg)
		run(m, sc)
		m.Drain()
		return m.Stats().NVRAMWriteLines, *m.Stats()
	}
	w1, st1 := once()
	w2, st2 := once()
	if w1 != w2 {
		t.Fatalf("durable write streams diverged: %d vs %d lines", w1, w2)
	}
	if st1 != st2 {
		t.Fatalf("stats diverged between same-seed windowed runs:\n%+v\nvs\n%+v", st1, st2)
	}
}

// sortedAddrs returns the addresses of an expectation map in ascending
// order.
func sortedAddrs(vals map[uint64]uint64) []uint64 {
	vas := make([]uint64, 0, len(vals))
	for va := range vals {
		vas = append(vas, va)
	}
	slices.Sort(vas)
	return vas
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
