package experiments

import (
	"strings"
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
	rows := Fig5(tinyScale(), 1)
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
	rows := Fig6(tinyScale(), 1)
	for _, r := range rows {
		if r.Kind == workload.SPS {
			continue // consolidation-dominated, discussed in Fig 7b
		}
		if r.Norm[ssp.SSP] >= r.Norm[ssp.RedoLog] {
			t.Errorf("%s: SSP logging (%.2f) not below REDO (%.2f)",
				r.Kind, r.Norm[ssp.SSP], r.Norm[ssp.RedoLog])
		}
		if r.Norm[ssp.SSP] > 0.6 {
			t.Errorf("%s: SSP logging %.2f of UNDO, want well below", r.Kind, r.Norm[ssp.SSP])
		}
	}
	_ = RenderFig6(rows)
}

func TestFig7ShapesMatchPaper(t *testing.T) {
	rows := Fig7(tinyScale(), 1)
	var sspSum, redoSum float64
	for _, r := range rows {
		sspSum += r.Norm[ssp.SSP]
		redoSum += r.Norm[ssp.RedoLog]
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

func TestAblations(t *testing.T) {
	sc := tinyScale()
	sc.Ops = 300

	sub := AblateSubPage(sc)
	if len(sub) != 8 {
		t.Fatalf("subpage rows: %d", len(sub))
	}

	wsb := AblateWSB(sc)
	if wsb[0].Fallback != 0 {
		t.Errorf("wsb=64 should not fall back (got %d)", wsb[0].Fallback)
	}
	if wsb[2].Fallback == 0 {
		t.Errorf("wsb=2 should force fall-back transactions")
	}

	rq := AblateRedoQueue(sc)
	if len(rq) != 3 {
		t.Fatalf("redo queue rows: %d", len(rq))
	}

	res := AblateSSPCacheResidency(sc)
	if res[0].TPS < res[2].TPS {
		t.Errorf("shrinking SSP-cache residency should not speed SPS up (%.0f -> %.0f)",
			res[0].TPS, res[2].TPS)
	}

	// Shootdown-based flips must be slower than the coherence broadcast.
	flip := AblateFlipMechanism(sc)
	for i := 0; i < len(flip); i += 2 {
		if flip[i+1].TPS >= flip[i].TPS {
			t.Errorf("%s: shootdown flips (%.0f TPS) not slower than broadcast (%.0f)",
				flip[i].Kind, flip[i+1].TPS, flip[i].TPS)
		}
	}

	// Lazy consolidation defers copies: SPS total writes must not rise.
	pol := AblateConsolidationPolicy(sc)
	if pol[1].Writes > pol[0].Writes {
		t.Errorf("lazy consolidation wrote more than eager: %d > %d", pol[1].Writes, pol[0].Writes)
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

func TestChannelSweep(t *testing.T) {
	sc := tinyScale()
	points := ChannelSweep(sc, workload.Memcached, ssp.SSP, []int{1, 4}, []int{1, 2})
	if len(points) != 4 {
		t.Fatalf("expected 4 sweep points, got %d", len(points))
	}
	for _, pt := range points {
		if pt.Speedup <= 0 {
			t.Errorf("%dch x %dcore: speedup %.2f not positive", pt.Channels, pt.Cores, pt.Speedup)
		}
		if len(pt.Util) != pt.Channels {
			t.Fatalf("%dch x %dcore: %d utilization entries", pt.Channels, pt.Cores, len(pt.Util))
		}
		for c, u := range pt.Util {
			if u < 0 || u > 1 {
				t.Errorf("%dch x %dcore: channel %d utilization %.3f out of [0,1]", pt.Channels, pt.Cores, c, u)
			}
			if u == 0 {
				t.Errorf("%dch x %dcore: channel %d saw no bus occupancy", pt.Channels, pt.Cores, c)
			}
		}
	}
	// Multi-core runs must beat the 1-core run at the same channel count.
	byKey := map[[2]int]ChannelPoint{}
	for _, pt := range points {
		byKey[[2]int{pt.Channels, pt.Cores}] = pt
	}
	for _, ch := range []int{1, 4} {
		if s1, s2 := byKey[[2]int{ch, 1}].Speedup, byKey[[2]int{ch, 2}].Speedup; s2 <= s1 {
			t.Errorf("%dch: 2-core speedup %.2f not above 1-core %.2f", ch, s2, s1)
		}
	}
	if out := RenderChannels(points); !strings.Contains(out, "channels") || !strings.Contains(out, "utilization") {
		t.Errorf("render missing sections:\n%s", out)
	}
}

func TestJournalSweep(t *testing.T) {
	sc := tinyScale()
	points := JournalSweep(sc, workload.Memcached, 2, []int{1, 2}, []int{1, 2})
	if len(points) != 4 {
		t.Fatalf("expected 4 sweep points, got %d", len(points))
	}
	byKey := map[[2]int]JournalPoint{}
	for _, pt := range points {
		if pt.Speedup <= 0 {
			t.Errorf("%dsh x %dcore: speedup %.2f not positive", pt.Shards, pt.Cores, pt.Speedup)
		}
		if got := len(pt.Parallel.Journal); got != pt.Shards {
			t.Fatalf("%dsh x %dcore: %d pressure entries, want %d", pt.Shards, pt.Cores, got, pt.Shards)
		}
		byKey[[2]int{pt.Shards, pt.Cores}] = pt
	}
	// With two cores on two shards, both shards must carry records and the
	// per-shard sums must equal the run's journal record total.
	pt := byKey[[2]int{2, 2}]
	var sum uint64
	for _, p := range pt.Parallel.Journal {
		if p.Records == 0 {
			t.Errorf("2sh x 2core: shard %d appended no records", p.Shard)
		}
		if f := p.FillFrac(); f < 0 || f > 1 {
			t.Errorf("2sh x 2core: shard %d fill %.3f out of [0,1]", p.Shard, f)
		}
		sum += p.Records
	}
	if sum != pt.Parallel.Stats.JournalRecords {
		t.Errorf("2sh x 2core: per-shard records sum %d != total %d", sum, pt.Parallel.Stats.JournalRecords)
	}
	// Journal bank occupancy must be visible in the counters and the render.
	if pt.Parallel.Stats.NVRAMBankBusy[stats.CatMetaJournal] == 0 {
		t.Error("2sh x 2core: no CatMetaJournal bank busy cycles recorded")
	}
	out := RenderJournal(points)
	if !strings.Contains(out, "shards") || !strings.Contains(out, "journal bank busy") {
		t.Errorf("render missing sections:\n%s", out)
	}
}

// TestCrossShardSweep runs the cross-shard experiment at tiny scale on both
// mixes: global commits must appear exactly when the cross fraction is
// non-zero and the machine has peers, each global commit must have spread
// prepare records over at least two shards, and the cross fraction of
// committed transactions must track the requested percentage.
func TestCrossShardSweep(t *testing.T) {
	sc := tinyScale()
	for _, kind := range []workload.Kind{workload.MemcachedCross, workload.VacationCross} {
		points := CrossShardSweep(sc, kind, 2, 4, []int{0, 25}, []int{1, 2})
		if len(points) != 4 {
			t.Fatalf("%s: expected 4 sweep points, got %d", kind, len(points))
		}
		for _, pt := range points {
			st := pt.Parallel.Stats
			if pt.CrossPct == 0 || pt.Cores == 1 {
				if st.GlobalCommits != 0 {
					t.Errorf("%s %d%% x %dcore: %d global commits, want 0",
						kind, pt.CrossPct, pt.Cores, st.GlobalCommits)
				}
				continue
			}
			if st.GlobalCommits == 0 {
				t.Errorf("%s %d%% x %dcore: no global commits", kind, pt.CrossPct, pt.Cores)
				continue
			}
			if st.PrepareRecords < 2*st.GlobalCommits {
				t.Errorf("%s %d%% x %dcore: %d prepare records for %d global commits (< 2 shards each)",
					kind, pt.CrossPct, pt.Cores, st.PrepareRecords, st.GlobalCommits)
			}
			frac := float64(st.GlobalCommits) / float64(st.Commits)
			if frac < 0.10 || frac > 0.45 {
				t.Errorf("%s %d%% x %dcore: global fraction %.2f far from requested 0.25",
					kind, pt.CrossPct, pt.Cores, frac)
			}
		}
	}
	if out := RenderCrossShard(CrossShardSweep(sc, workload.MemcachedCross, 2, 4, []int{25}, []int{2})); out == "" {
		t.Error("RenderCrossShard returned empty output")
	}
}

// TestAblateRedoEngines: per-core write-back engines must not slow the
// 4-core parallel REDO run down, and the rows must carry speedups for the
// render's delta column.
func TestAblateRedoEngines(t *testing.T) {
	rows := AblateRedoEngines(tinyScale())
	if len(rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 0 {
			t.Errorf("%s: speedup %.2f not positive", r.Name, r.Speedup)
		}
	}
	// The single-engine run is the modelled DHTM floor; per-core engines
	// must be at least as fast (cross-core timing is host-schedule
	// dependent, so allow equality within noise).
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
