package experiments

import (
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/stats"
	"repro/internal/workload"
	"repro/ssp"
)

// tinyScale keeps the full experiment suite fast in tests.
func tinyScale() Scale {
	// The SPS array must exceed the TLB hierarchy's reach so SPS exercises
	// consolidation (the paper's Figure 7b breakdown depends on it); a
	// shrunken STLB keeps prefill fast.
	return Scale{Ops: 600, Keys: 4096, Elems: 1 << 17, Items: 2048, Tuples: 2048, Seed: 0xE0, STLB: 128}
}

// tinyMicro is the 1-thread microbenchmark run the Figure 5, 6 and 7 tests
// share.
var tinyMicro = sync.OnceValue(func() []MicroRow { return Micro(tinyScale(), 1) })

func TestTable3ShapesMatchPaper(t *testing.T) {
	rows := Table3(tinyScale())
	if len(rows) != 9 {
		t.Fatalf("expected 9 workloads, got %d", len(rows))
	}
	byKind := map[workload.Kind]Table3Row{}
	for _, r := range rows {
		byKind[r.Kind] = r
	}
	// Paper Table 3 shapes: SPS = 2/2/2; trees touch more lines than hash;
	// RBTree writes more lines than Hash; max pages ≥ avg pages.
	sps := byKind[workload.SPS]
	if sps.AvgLines < 1.5 || sps.AvgLines > 3.5 {
		t.Errorf("SPS avg lines %.2f, want ~2", sps.AvgLines)
	}
	if byKind[workload.RBTreeRand].AvgLines <= byKind[workload.HashRand].AvgLines {
		t.Errorf("RBTree lines (%.1f) should exceed Hash (%.1f)",
			byKind[workload.RBTreeRand].AvgLines, byKind[workload.HashRand].AvgLines)
	}
	for _, r := range rows {
		if float64(r.MaxPages) < r.AvgPages {
			t.Errorf("%s: max pages %d below avg %.1f", r.Kind, r.MaxPages, r.AvgPages)
		}
	}
	out := RenderTable3(rows)
	if !strings.Contains(out, "SPS") || !strings.Contains(out, "Memcached") {
		t.Error("render missing workloads")
	}
}

func TestFig5ShapeOneThread(t *testing.T) {
	rows := tinyMicro()
	if len(rows) != 7 {
		t.Fatalf("expected 7 microbenchmarks")
	}
	wins := 0
	for _, r := range rows {
		if r.TPS[ssp.UndoLog] != 1.0 {
			t.Errorf("%s: UNDO not normalised to 1.0", r.Kind)
		}
		if r.TPS[ssp.SSP] > r.TPS[ssp.UndoLog] {
			wins++
		}
	}
	// The paper: SSP outperforms UNDO on the microbenchmarks (SPS, past TLB
	// reach and consolidation-heavy, is the adversarial exception).
	if wins < 6 {
		t.Errorf("SSP beat UNDO on only %d/7 microbenchmarks", wins)
	}
	_ = RenderFig5(rows, 1)
}

func TestFig6SSPNearlyEliminatesLoggingWrites(t *testing.T) {
	rows := tinyMicro()
	for _, r := range rows {
		if r.Kind == workload.SPS {
			continue // consolidation-dominated, discussed in Fig 7b
		}
		if r.Logging[ssp.SSP] >= r.Logging[ssp.RedoLog] {
			t.Errorf("%s: SSP logging (%.2f) not below REDO (%.2f)",
				r.Kind, r.Logging[ssp.SSP], r.Logging[ssp.RedoLog])
		}
		if r.Logging[ssp.SSP] > 0.6 {
			t.Errorf("%s: SSP logging %.2f of UNDO, want well below", r.Kind, r.Logging[ssp.SSP])
		}
	}
	_ = RenderFig6(rows)
}

func TestFig7ShapesMatchPaper(t *testing.T) {
	rows := tinyMicro()
	var sspSum, redoSum float64
	for _, r := range rows {
		sspSum += r.Writes[ssp.SSP]
		redoSum += r.Writes[ssp.RedoLog]
		// Breakdown sums to ~100%.
		total := r.DataPct + r.JournalPct + r.ConsolidationPct + r.CheckpointPct
		if total < 99 || total > 101 {
			t.Errorf("%s: breakdown sums to %.1f%%", r.Kind, total)
		}
		// Paper: "writes caused by page consolidation are less than the
		// data writes under most of the workloads except for SPS" — SPS is
		// the consolidation-heavy outlier (its array exceeds the TLB
		// hierarchy's reach, so every transaction's pages cycle out); the
		// others stay clearly below data. Checked after the loop.
		if r.ConsolidationPct > r.DataPct {
			t.Errorf("%s: consolidation %.1f%% exceeds data %.1f%%",
				r.Kind, r.ConsolidationPct, r.DataPct)
		}
	}
	// SPS must carry the largest consolidation share of all workloads and
	// a substantial one in absolute terms.
	var spsConsol, maxOther float64
	for _, r := range rows {
		if r.Kind == workload.SPS {
			spsConsol = r.ConsolidationPct
		} else if r.ConsolidationPct > maxOther {
			maxOther = r.ConsolidationPct
		}
	}
	if spsConsol < maxOther || spsConsol < 10 {
		t.Errorf("SPS consolidation share %.1f%% should dominate (max other %.1f%%)", spsConsol, maxOther)
	}
	// Average write savings: SSP well below UNDO (paper: 45%) and below
	// REDO (paper: 28%).
	if sspSum/7 > 0.8 {
		t.Errorf("SSP average normalised writes %.2f, want clearly below 1", sspSum/7)
	}
	if sspSum >= redoSum {
		t.Errorf("SSP writes (%.2f avg) not below REDO (%.2f avg)", sspSum/7, redoSum/7)
	}
	_ = RenderFig7a(rows)
	_ = RenderFig7b(rows)
}

func TestFig8GapGrowsWithLatency(t *testing.T) {
	sc := tinyScale()
	sc.Ops = 400
	points := Fig8(sc)
	if len(points) != 10 {
		t.Fatalf("expected 10 points, got %d", len(points))
	}
	// The paper: all designs degrade with latency, and SSP's advantage over
	// REDO grows (1.1x at x1 to 1.8x at x9 for BTree).
	for _, k := range []workload.Kind{workload.RBTreeRand, workload.BTreeRand} {
		var first, last *Fig8Point
		for i := range points {
			if points[i].Kind != k {
				continue
			}
			if first == nil {
				first = &points[i]
			}
			last = &points[i]
		}
		if last.TPS[ssp.SSP] >= first.TPS[ssp.SSP] {
			t.Errorf("%s: SSP TPS did not degrade with latency", k)
		}
		gapFirst := first.TPS[ssp.SSP] / first.TPS[ssp.RedoLog]
		gapLast := last.TPS[ssp.SSP] / last.TPS[ssp.RedoLog]
		if gapLast <= gapFirst {
			t.Errorf("%s: SSP/REDO gap shrank with latency: %.2f -> %.2f", k, gapFirst, gapLast)
		}
	}
	_ = RenderFig8(points)
}

func TestFig9SpeedupFallsWithSSPCacheLatency(t *testing.T) {
	sc := tinyScale()
	sc.Ops = 400
	points := Fig9(sc)
	// For each workload, the speedup at 180 cycles must not exceed the
	// speedup at 20 cycles; SPS (poor locality) must be among the most
	// sensitive, as §5.3 observes.
	drop := map[workload.Kind]float64{}
	for _, k := range workload.Micro() {
		var at20, at180 float64
		for _, pt := range points {
			if pt.Kind != k {
				continue
			}
			if pt.Latency == 20 {
				at20 = pt.Speedup
			}
			if pt.Latency == 180 {
				at180 = pt.Speedup
			}
		}
		if at180 > at20 {
			t.Errorf("%s: speedup rose with SSP-cache latency (%.2f -> %.2f)", k, at20, at180)
		}
		if at20 > 0 {
			drop[k] = (at20 - at180) / at20
		}
	}
	if drop[workload.SPS] < drop[workload.BTreeZipf] {
		t.Errorf("SPS relative drop (%.2f) should exceed a zipf workload's (%.2f)",
			drop[workload.SPS], drop[workload.BTreeZipf])
	}
	_ = RenderFig9(points)
}

func TestTable45RealWorkloads(t *testing.T) {
	rows := Table45(tinyScale())
	if len(rows) != 2 {
		t.Fatalf("expected 2 real workloads")
	}
	for _, r := range rows {
		// The paper: SSP improves on both designs (Memcached 75%/35%,
		// Vacation 27%/13%) and saves write traffic on both.
		if r.SpeedupOver[ssp.UndoLog] <= 0 {
			t.Errorf("%s: no speedup over UNDO (%.0f%%)", r.Kind, r.SpeedupOver[ssp.UndoLog])
		}
		if r.SavingOver[ssp.UndoLog] <= 0 || r.SavingOver[ssp.RedoLog] <= 0 {
			t.Errorf("%s: no write saving (%.0f%% / %.0f%%)",
				r.Kind, r.SavingOver[ssp.UndoLog], r.SavingOver[ssp.RedoLog])
		}
		if r.SpeedupOver[ssp.UndoLog] < r.SpeedupOver[ssp.RedoLog] {
			t.Errorf("%s: speedup over UNDO below speedup over REDO", r.Kind)
		}
	}
	_ = RenderTable4(rows)
	_ = RenderTable5(rows)
}

// tinyAblations runs every ablation table once at tinyScale for the tests
// below.
var tinyAblations = sync.OnceValue(func() map[string][]AblationRow {
	tables := map[string][]AblationRow{}
	for _, t := range Ablations(tinyScale()) {
		tables[t.ID] = t.Rows
	}
	return tables
})

func TestAblations(t *testing.T) {
	tables := tinyAblations()
	if len(tables) != 6 {
		t.Fatalf("ablation tables: %d", len(tables))
	}

	sub := tables["SubPageGranularity"]
	if len(sub) != 8 {
		t.Fatalf("subpage rows: %d", len(sub))
	}

	wsb := tables["WSBCapacity"]
	if wsb[0].Fallback != 0 {
		t.Errorf("wsb=64 should not fall back (got %d)", wsb[0].Fallback)
	}
	if wsb[2].Fallback == 0 {
		t.Errorf("wsb=2 should force fall-back transactions")
	}

	res := tables["SSPCacheResidency"]
	if res[0].TPS < res[2].TPS {
		t.Errorf("shrinking SSP-cache residency should not speed SPS up (%.0f -> %.0f)",
			res[0].TPS, res[2].TPS)
	}

	// Shootdown-based flips must be slower than the coherence broadcast.
	flip := tables["FlipMechanism"]
	for i := 0; i < len(flip); i += 2 {
		if flip[i+1].TPS >= flip[i].TPS {
			t.Errorf("%s: shootdown flips (%.0f TPS) not slower than broadcast (%.0f)",
				flip[i].Kind, flip[i+1].TPS, flip[i].TPS)
		}
	}

	// Lazy consolidation defers copies: SPS total writes must not rise.
	pol := tables["ConsolidationPolicy"]
	if pol[1].Writes > pol[0].Writes {
		t.Errorf("lazy consolidation wrote more than eager: %d > %d", pol[1].Writes, pol[0].Writes)
	}

	// A setting that equals the default machine shares the default's run:
	// RBTree-Rand's default row is the same in every table that has one.
	if sub[2].TPS != wsb[0].TPS || sub[2].TPS != flip[0].TPS || sub[2].TPS != pol[2].TPS {
		t.Errorf("default RBTree-Rand rows differ: %.0f %.0f %.0f %.0f", sub[2].TPS, wsb[0].TPS, flip[0].TPS, pol[2].TPS)
	}
	_ = RenderAblations("subpage", sub)
}

func TestRecoveryEffort(t *testing.T) {
	sc := tinyScale()
	sc.Ops = 400
	rows := RecoveryEffort(sc)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Recovered {
			t.Errorf("journal %dKiB: recovery verification failed", r.JournalKB)
		}
	}
	// A larger journal checkpoints less often.
	if rows[0].Checkpoints <= rows[2].Checkpoints {
		t.Errorf("16KiB journal should checkpoint more than 256KiB (%d vs %d)",
			rows[0].Checkpoints, rows[2].Checkpoints)
	}
	_ = RenderRecovery(rows)
}

// TestGrid runs each grid sweep at tiny scale and holds it to the runner's
// contract: one 1-core baseline per row, run on the row's parameters by the
// driver the kind needs (the cross-shard mixes run only on the parallel
// one), one cell per core count in order, and a speedup that is exactly the
// cell's committed TPS over its row baseline's. Each case then checks the
// mechanism its row axis varies, and the render prints every row and cell.
func TestGrid(t *testing.T) {
	sc := tinyScale()
	for _, tc := range []struct {
		name  string
		run   func() Grid
		rows  []string
		check func(t *testing.T, c GridCell)
	}{
		{"parallel", func() Grid { return ParallelScaling(sc, workload.Memcached, 2) },
			[]string{"UNDO-LOG", "REDO-LOG", "SSP"}, func(t *testing.T, c GridCell) {
				if got := c.Parallel.Backend.String(); got != c.Row {
					t.Errorf("row %s ran on %s", c.Row, got)
				}
			}},
		{"channels", func() Grid { return ChannelSweep(sc, workload.Memcached, ssp.SSP, []int{1, 4}, []int{1, 2}) },
			[]string{"1", "4"}, func(t *testing.T, c GridCell) {
				if c.Cores > 1 && c.Speedup() <= 1 {
					t.Errorf("%sch x %dcore: speedup %.2f, not above the 1-core run", c.Row, c.Cores, c.Speedup())
				}
				for ch := 0; ch < c.Params.Machine.Channels; ch++ {
					if u := busUtil(c.Parallel, ch); u <= 0 || u > 1 {
						t.Errorf("%sch x %dcore: channel %d utilization %.3f out of (0,1]", c.Row, c.Cores, ch, u)
					}
				}
			}},
		{"journal", func() Grid { return JournalSweep(sc, workload.Memcached, 2, []int{1, 2}, []int{1, 2}) },
			[]string{"1", "2"}, func(t *testing.T, c GridCell) {
				// Each shard's records add up to the run's, and the
				// journal banks' occupancy is counted.
				res := c.Parallel
				if got := len(res.Journal); got != c.Params.Machine.JournalShards {
					t.Fatalf("%ssh x %dcore: %d pressure entries", c.Row, c.Cores, got)
				}
				var sum uint64
				for _, p := range res.Journal {
					if p.Records == 0 && c.Cores >= len(res.Journal) {
						t.Errorf("%ssh x %dcore: shard %d appended no records", c.Row, c.Cores, p.Shard)
					}
					if f := p.FillFrac(); f < 0 || f > 1 {
						t.Errorf("%ssh x %dcore: shard %d fill %.3f out of [0,1]", c.Row, c.Cores, p.Shard, f)
					}
					sum += p.Records
				}
				if sum != res.Stats.JournalRecords {
					t.Errorf("%ssh x %dcore: per-shard records sum %d != total %d", c.Row, c.Cores, sum, res.Stats.JournalRecords)
				}
				if res.Stats.NVRAMBankBusy[stats.CatMetaJournal] == 0 {
					t.Errorf("%ssh x %dcore: no CatMetaJournal bank busy cycles", c.Row, c.Cores)
				}
			}},
		{"crossshard/memcached", func() Grid { return CrossShardSweep(sc, workload.MemcachedCross, 2, 4, []int{0, 25}, []int{1, 2}) },
			[]string{"0", "25"}, checkCrossShard},
		{"crossshard/vacation", func() Grid { return CrossShardSweep(sc, workload.VacationCross, 2, 4, []int{0, 25}, []int{1, 2}) },
			[]string{"0", "25"}, checkCrossShard},
		{"scale", func() Grid { return ScaleSweep(sc, workload.Memcached, []int{1024, 4096}, []int{2}) },
			[]string{"1024", "4096"}, func(t *testing.T, c GridCell) {
				if got := strconv.Itoa(int(c.Parallel.WindowSched.Window)); got != c.Row {
					t.Errorf("row W=%s ran with a %s-cycle window", c.Row, got)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := tc.run()
			if len(g.Cells) != len(tc.rows)*len(g.Cores) {
				t.Fatalf("%d cells for %d rows x %d core counts", len(g.Cells), len(tc.rows), len(g.Cores))
			}
			for i, c := range g.Cells {
				row := g.Cells[i-i%len(g.Cores)]
				if c.Row != tc.rows[i/len(g.Cores)] || c.Cores != g.Cores[i%len(g.Cores)] {
					t.Fatalf("cell %d is %s x %d cores, want %s x %d", i, c.Row, c.Cores, tc.rows[i/len(g.Cores)], g.Cores[i%len(g.Cores)])
				}
				if c.Base.Cycles != row.Base.Cycles || c.Base.Stats != row.Base.Stats {
					t.Errorf("%s x %d cores: baseline differs from its row's", c.Row, c.Cores)
				}
				if c.Speedup() != c.TPS()/c.BaseTPS() {
					t.Errorf("%s x %d cores: speedup %v, want %v / %v", c.Row, c.Cores, c.Speedup(), c.TPS(), c.BaseTPS())
				}
				tc.check(t, c)
			}
			for i := 0; i < len(g.Cells); i += len(g.Cores) {
				c := g.Cells[i]
				p := c.Params
				p.Clients = 1
				var want workload.ParallelResult
				if g.Kind == workload.MemcachedCross || g.Kind == workload.VacationCross {
					want = workload.RunParallel(p)
				} else {
					want.Result = workload.Run(p)
				}
				if c.Base.Cycles != want.Cycles || c.Base.Stats != want.Stats || len(c.Base.PerCore) != len(want.PerCore) {
					t.Errorf("row %s: baseline is not its parameters' 1-core run on the kind's driver", c.Row)
				}
			}
			out := RenderGrid(g)
			if got := strings.Count(out, "core: "); got != len(g.Cells) {
				t.Errorf("render has %d detail lines for %d cells:\n%s", got, len(g.Cells), out)
			}
			for _, r := range tc.rows {
				if !strings.Contains(out, g.Axis+" "+r+" x ") {
					t.Errorf("render misses row %s:\n%s", r, out)
				}
			}
		})
	}
}

// checkCrossShard: global commits appear exactly when the cross fraction is
// non-zero and the machine has peers, each spreads prepare records over at
// least two shards, and the global fraction of committed transactions
// tracks the requested 25%.
func checkCrossShard(t *testing.T, c GridCell) {
	st := c.Parallel.Stats
	if c.Params.CrossPct == 0 || c.Cores == 1 {
		if st.GlobalCommits != 0 {
			t.Errorf("%s%% x %dcore: %d global commits, want 0", c.Row, c.Cores, st.GlobalCommits)
		}
		return
	}
	if st.GlobalCommits == 0 {
		t.Fatalf("%s%% x %dcore: no global commits", c.Row, c.Cores)
	}
	if st.PrepareRecords < 2*st.GlobalCommits {
		t.Errorf("%s%% x %dcore: %d prepare records for %d global commits (< 2 shards each)",
			c.Row, c.Cores, st.PrepareRecords, st.GlobalCommits)
	}
	if frac := float64(st.GlobalCommits) / float64(st.Commits); frac < 0.10 || frac > 0.45 {
		t.Errorf("%s%% x %dcore: global fraction %.2f far from requested 0.25", c.Row, c.Cores, frac)
	}
}

// TestAblateRedoEngines: per-core write-back engines must not slow the
// 4-core parallel REDO run down, and the rows must carry speedups for the
// render's delta column.
func TestAblateRedoEngines(t *testing.T) {
	rows := tinyAblations()["RedoWriteBackEngines"]
	if len(rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 0 {
			t.Errorf("%s: speedup %.2f not positive", r.Name, r.Speedup)
		}
	}
	// The single-engine run is the modelled DHTM floor; per-core engines
	// must be about as fast or faster.
	if rows[len(rows)-1].TPS < 0.8*rows[0].TPS {
		t.Errorf("per-core engines (%.0f TPS) much slower than single engine (%.0f TPS)",
			rows[len(rows)-1].TPS, rows[0].TPS)
	}
	if out := RenderAblations("redo engines", rows); out == "" {
		t.Error("RenderAblations returned empty output")
	}
}

func TestSweepPowersOfTwo(t *testing.T) {
	for _, tc := range []struct {
		max  int
		want []int
	}{
		{0, []int{1}}, {1, []int{1}}, {4, []int{1, 2, 4}}, {6, []int{1, 2, 4, 6}}, {8, []int{1, 2, 4, 8}},
	} {
		got := SweepPowersOfTwo(tc.max)
		if len(got) != len(tc.want) {
			t.Errorf("SweepPowersOfTwo(%d) = %v, want %v", tc.max, got, tc.want)
			continue
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("SweepPowersOfTwo(%d) = %v, want %v", tc.max, got, tc.want)
				break
			}
		}
	}
}
