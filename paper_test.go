// TestPaperFigures regenerates the paper's evaluation — Tables 3–5, Figs
// 5–9, the two ablations, the recovery sweep and the multi-core smokes — at
// a fixed small scale and holds every value to ci/bench_baseline.json at
// exact float64 equality. Every simulated number is a pure function of
// (commit, seed), so any difference is a behavioural change: re-record with
//
//	go test -run '^TestPaperFigures$' . -update
//
// under the model-bug or deleted-feature rule, and say so. `go test -v -run
// TestPaperFigures .` prints the whole evaluation.
package repro_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
	"repro/ssp"
)

var update = flag.Bool("update", false, "rewrite "+baselinePath+" from this run")

const baselinePath = "ci/bench_baseline.json"

// figures maps a row's benchmark name (the name it carried as a Go
// benchmark) to its metrics, the shape of ci/bench_baseline.json.
type figures map[string]map[string]float64

func (f figures) put(bench, metric string, v float64) {
	if f[bench] == nil {
		f[bench] = map[string]float64{}
	}
	f[bench][metric] = v
}

// paperScale keeps every experiment small; `sspbench -scale full` runs the
// same experiments at reproduction size. The shrunken STLB preserves
// TLB-pressure effects (consolidation) at small sizes.
func paperScale() experiments.Scale {
	return experiments.Scale{Ops: 1200, Keys: 8192, Elems: 1 << 17, Items: 4096, Tuples: 4096, Seed: 0xE0, STLB: 128}
}

// shortScale is paperScale at 600 operations, the size of the latency
// sweeps and ablations.
func shortScale() experiments.Scale {
	sc := paperScale()
	sc.Ops = 600
	return sc
}

// paperRows has one row per figure, table or smoke; each runs its
// experiment once.
var paperRows = []struct {
	name string
	run  func(f figures)
}{
	{"Table3", func(f figures) {
		for _, r := range experiments.Table3(paperScale()) {
			f.put("BenchmarkTable3_Characterisation", r.Kind.String()+"_lines/txn", r.AvgLines)
		}
	}},
	{"Fig5a", func(f figures) {
		for _, r := range experiments.Fig5(paperScale(), 1) {
			f.put("BenchmarkFig5a_MicroTPS_1Thread", r.Kind.String()+"_SSP/UNDO", r.TPS[ssp.SSP])
		}
	}},
	{"Fig5b", func(f figures) {
		for _, r := range experiments.Fig5(paperScale(), 4) {
			f.put("BenchmarkFig5b_MicroTPS_4Threads", r.Kind.String()+"_SSP/UNDO", r.TPS[ssp.SSP])
		}
	}},
	{"Fig6", func(f figures) {
		for _, r := range experiments.Fig6(paperScale(), 1) {
			f.put("BenchmarkFig6_LoggingWrites", r.Kind.String()+"_SSP/UNDO", r.Norm[ssp.SSP])
		}
	}},
	{"Fig7", func(f figures) {
		for _, r := range experiments.Fig7(paperScale(), 1) {
			f.put("BenchmarkFig7a_NVRAMWrites", r.Kind.String()+"_SSP/UNDO", r.Norm[ssp.SSP])
			f.put("BenchmarkFig7b_SSPWriteBreakdown", r.Kind.String()+"_consol%", r.ConsolidationPct)
		}
	}},
	{"Fig8", func(f figures) {
		for _, pt := range experiments.Fig8(shortScale()) {
			if pt.Kind == workload.BTreeRand {
				f.put("BenchmarkFig8_NVRAMLatencySweep", "BTree_SSP_kTPS_x"+strconv.Itoa(pt.Multiple), pt.TPS[ssp.SSP]/1e3)
			}
		}
	}},
	{"Fig9", func(f figures) {
		for _, pt := range experiments.Fig9(shortScale()) {
			if pt.Kind == workload.SPS {
				f.put("BenchmarkFig9_SSPCacheLatencySweep", "SPS_speedup_lat"+strconv.Itoa(pt.Latency), pt.Speedup)
			}
		}
	}},
	{"Table45", func(f figures) {
		for _, r := range experiments.Table45(paperScale()) {
			f.put("BenchmarkTable4_RealWorkloadSpeedup", r.Kind.String()+"_vsUNDO_%", r.SpeedupOver[ssp.UndoLog])
			f.put("BenchmarkTable4_RealWorkloadSpeedup", r.Kind.String()+"_vsREDO_%", r.SpeedupOver[ssp.RedoLog])
			f.put("BenchmarkTable5_RealWorkloadWriteSaving", r.Kind.String()+"_vsUNDO_%", r.SavingOver[ssp.UndoLog])
			f.put("BenchmarkTable5_RealWorkloadWriteSaving", r.Kind.String()+"_vsREDO_%", r.SavingOver[ssp.RedoLog])
		}
	}},
	{"AblationSubPage", func(f figures) {
		for _, r := range experiments.AblateSubPage(shortScale()) {
			f.put("BenchmarkAblation_SubPageGranularity", r.Kind.String()+"_"+r.Name+"_TPS", r.TPS)
		}
	}},
	{"AblationConsolidation", func(f figures) {
		for _, r := range experiments.AblateConsolidationPolicy(shortScale()) {
			f.put("BenchmarkAblation_ConsolidationPolicy", r.Kind.String()+"_"+r.Name+"_TPS", r.TPS)
		}
	}},
	{"RecoveryEffort", func(f figures) {
		sc := paperScale()
		sc.Ops = 400
		for _, r := range experiments.RecoveryEffort(sc) {
			f.put("BenchmarkRecoveryEffort", "replayed_j"+strconv.Itoa(r.JournalKB), float64(r.ReplayedRecords))
		}
	}},
	// SSP on the sharded memcached workload over 4 channels and 4 journal
	// shards: 4 cores (the parallel smoke) and 8 (the scale smoke) against
	// one 1-core serial run.
	{"ParallelScaleSmoke", func(f figures) {
		params := func(clients int) workload.Params {
			p := workload.Params{Kind: workload.Memcached, Backend: ssp.SSP, Clients: clients, Ops: 4000, Items: 4096, Seed: 0xE0}
			p.Machine.Channels = 4
			p.Machine.JournalShards = 4
			return p
		}
		serial := workload.Run(params(1))
		sTPS := experiments.CommittedTPS(serial.Cycles, serial)
		par := workload.RunParallel(params(4))
		pTPS := experiments.CommittedTPS(par.Cycles, par.Result)
		f.put("BenchmarkParallelSmoke", "SSP_cTPS", pTPS)
		f.put("BenchmarkParallelSmoke", "SSP_serial_cTPS", sTPS)
		f.put("BenchmarkParallelSmoke", "SSP_speedup", pTPS/sTPS)
		f.put("BenchmarkParallelSmoke", "SSP_barrierwait_cycles", float64(par.Stats.CommitBarrierWait))
		scale := workload.RunParallel(params(8))
		cTPS := experiments.CommittedTPS(scale.Cycles, scale.Result)
		f.put("BenchmarkScaleSmoke", "Scale_cTPS", cTPS)
		f.put("BenchmarkScaleSmoke", "Scale_speedup", cTPS/sTPS)
		f.put("BenchmarkScaleSmoke", "Scale_windows", float64(scale.WindowSched.Windows))
	}},
	// The 2-core memcached cross-shard mix at a 50% global fraction over 4
	// journal shards, against 1 core.
	{"CrossShardSmoke", func(f figures) {
		params := func(clients int) workload.Params {
			p := workload.Params{Kind: workload.MemcachedCross, Backend: ssp.SSP, Clients: clients, Ops: 4000, Items: 4096, Seed: 0xE0}
			p.CrossPct = 50
			p.Machine.Channels = 4
			p.Machine.JournalShards = 4
			return p
		}
		base := workload.RunParallel(params(1))
		par := workload.RunParallel(params(2))
		bTPS := experiments.CommittedTPS(base.Cycles, base.Result)
		pTPS := experiments.CommittedTPS(par.Cycles, par.Result)
		const b = "BenchmarkCrossShardSmoke"
		f.put(b, "SSPCross_cTPS", pTPS)
		f.put(b, "SSPCross_speedup_50pct", pTPS/bTPS)
		f.put(b, "SSPCross_barrierwait_cycles", float64(par.Stats.CommitBarrierWait))
	}},
	// The 4-core single-shard memcached mix, synchronous against relaxed
	// with a 100k-cycle epoch: acknowledged and durable TPS bracket the
	// durability lag.
	{"RelaxedSmoke", func(f figures) {
		params := func(epoch int) workload.Params {
			p := workload.Params{Kind: workload.Memcached, Backend: ssp.SSP, Clients: 4, Ops: 4000, Items: 4096, Seed: 0xE0}
			p.Machine.Channels = 4
			p.Machine.JournalShards = 1
			p.Machine.DurabilityEpoch = epoch
			p.Relaxed = epoch > 0
			return p
		}
		sync := workload.RunParallel(params(0))
		rel := workload.RunParallel(params(100000))
		const b = "BenchmarkRelaxedSmoke"
		f.put(b, "Relaxed_sync_cTPS", sync.CommittedTPS)
		f.put(b, "Relaxed_ack_cTPS", rel.CommittedTPS)
		f.put(b, "Relaxed_durable_TPS", rel.TPS)
		f.put(b, "Relaxed_ack_speedup", rel.CommittedTPS/sync.CommittedTPS)
		f.put(b, "Relaxed_sync_barrier_pct", 100*experiments.BarrierWaitShare(sync, 4))
		f.put(b, "Relaxed_epoch_barrier_pct", 100*experiments.BarrierWaitShare(rel, 4))
		f.put(b, "Relaxed_commits", float64(rel.Stats.RelaxedCommits))
		f.put(b, "Relaxed_hardened_epochs", float64(rel.Stats.HardenedEpochs))
		f.put(b, "Relaxed_harden_lag_cycles", experiments.MeanHardenLag(rel.Stats))
	}},
	// The open-loop sharded-kv service on 4 cores at YCSB-style skew: a
	// closed-loop probe sets the capacity, then sync and relaxed serve half
	// of it, below the queueing knee.
	{"ServeSmoke", func(f figures) {
		params := func(rate float64, relaxed bool) workload.ServeParams {
			p := workload.ServeParams{Backend: ssp.SSP, Clients: 4, Ops: 12000, Items: 4096, Skew: 0.99, OfferedTPS: rate, Relaxed: relaxed, Seed: 0xE0}
			p.Machine.Channels = 4
			p.Machine.JournalShards = 1
			if relaxed {
				p.Machine.DurabilityEpoch = 100000
			}
			return p
		}
		probe := workload.RunServe(params(0, false))
		rate := probe.CommittedTPS * 0.5
		sync := workload.RunServe(params(rate, false))
		rel := workload.RunServe(params(rate, true))
		const b = "BenchmarkServeSmoke"
		f.put(b, "Serve_cTPS", probe.CommittedTPS)
		f.put(b, "Serve_p50", float64(sync.LatencyP50))
		f.put(b, "Serve_p99", float64(sync.LatencyP99))
		f.put(b, "Serve_p999", float64(sync.LatencyP999))
		f.put(b, "Serve_relaxed_p99", float64(rel.LatencyP99))
		f.put(b, "Serve_relaxed_p999", float64(rel.LatencyP999))
		f.put(b, "Serve_harden_lag_cycles", experiments.MeanHardenLag(rel.Stats))
		f.put(b, "Serve_sync_over_relaxed_p99", float64(sync.LatencyP99)/float64(rel.LatencyP99))
	}},
	// The cache experiment's serve mix (4 cores, Zipfian keys, GET-path
	// recency stamps, a 256 KiB L3), bare and with a 1024-frame DRAM buffer
	// tier. The bare row is the sentinel that DRAMCacheFrames = 0 still
	// models the bare-NVRAM machine.
	{"CacheSmoke", func(f figures) {
		params := func(frames int) workload.ServeParams {
			return workload.ServeParams{Backend: ssp.SSP, Clients: 4, Ops: 8000, Items: 4096, Skew: 0.99, ReadPct: 70, TouchOnGet: true, Seed: 0xE0,
				Machine: ssp.Config{L3KB: 256, DRAMCacheFrames: frames}}
		}
		bare := workload.RunServe(params(0))
		cached := workload.RunServe(params(1024))
		const b = "BenchmarkCacheSmoke"
		f.put(b, "Cache_cTPS", cached.CommittedTPS)
		f.put(b, "Cache_bare_cTPS", bare.CommittedTPS)
		f.put(b, "Cache_hit_pct", 100*float64(cached.Stats.DRAMCacheHits)/float64(cached.Stats.DRAMCacheReads))
		f.put(b, "Cache_bare_dataWr_lines", float64(experiments.DataWriteLines(bare.Stats)))
		f.put(b, "Cache_dataWr_lines", float64(experiments.DataWriteLines(cached.Stats)))
		f.put(b, "Cache_speedup", cached.CommittedTPS/bare.CommittedTPS)
	}},
	// The simulated cycles of one minimal two-store transaction on a fresh
	// machine of each design: the mechanism overhead itself.
	{"TxnPath", func(f figures) {
		for _, backend := range ssp.Backends() {
			m := txnPathMachine(backend)
			txnPathTxn(m.Core(0), 0)
			f.put("BenchmarkTxnPath/"+backend.String(), "simcycles/txn", float64(m.MaxClock()))
		}
	}},
}

func TestPaperFigures(t *testing.T) {
	got := figures{}
	for _, row := range paperRows {
		start := time.Now()
		row.run(got)
		t.Logf("%s ran in %v", row.name, time.Since(start).Round(time.Millisecond))
	}
	for _, bench := range sortedKeys(got) {
		for _, metric := range sortedKeys(got[bench]) {
			t.Logf("%s %s %s", bench, metric, num(got[bench][metric]))
		}
	}
	if *update {
		data, err := json.MarshalIndent(struct {
			Benchmarks figures `json:"benchmarks"`
		}{got}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(baselinePath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := readBaseline(baselinePath)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diffFigures(got, want) {
		t.Error(d)
	}
}

func readBaseline(path string) (figures, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base struct {
		Benchmarks figures `json:"benchmarks"`
	}
	return base.Benchmarks, json.Unmarshal(data, &base)
}

// diffFigures returns one line, in key order, for each value that differs
// between the run (got) and the baseline (want), that the run did not
// produce, or that the baseline does not hold. Values compare at exact
// float64 equality.
func diffFigures(got, want figures) []string {
	all := figures{}
	for _, f := range []figures{got, want} {
		for bench, ms := range f {
			for metric := range ms {
				all.put(bench, metric, 0)
			}
		}
	}
	var out []string
	for _, bench := range sortedKeys(all) {
		for _, metric := range sortedKeys(all[bench]) {
			g, inRun := got[bench][metric]
			w, inBase := want[bench][metric]
			switch {
			case !inRun:
				out = append(out, fmt.Sprintf("%s %s: missing from the run (baseline %s)", bench, metric, num(w)))
			case !inBase:
				out = append(out, fmt.Sprintf("%s %s: missing from the baseline (run %s)", bench, metric, num(g)))
			case g != w:
				out = append(out, fmt.Sprintf("%s %s: run %s, baseline %s", bench, metric, num(g), num(w)))
			}
		}
	}
	return out
}

// num prints v with the fewest digits that read back as v, so a one-ulp
// difference shows.
func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// The gate fails closed: a value that differs by one ulp, a metric the run
// did not produce and a metric the baseline does not hold each make one line
// naming the row, the metric and the values.
func TestDiffFigures(t *testing.T) {
	base := func() figures { return figures{"BenchmarkX": {"a": 1.5, "b": 2}} }
	for _, tc := range []struct {
		name string
		edit func(got figures)
		want string
	}{
		{"value differs", func(got figures) { got["BenchmarkX"]["a"] = math.Nextafter(1.5, 2) },
			"BenchmarkX a: run 1.5000000000000002, baseline 1.5"},
		{"missing from run", func(got figures) { delete(got["BenchmarkX"], "b") },
			"BenchmarkX b: missing from the run (baseline 2)"},
		{"missing from baseline", func(got figures) { got.put("BenchmarkY", "c", 3) },
			"BenchmarkY c: missing from the baseline (run 3)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := base()
			if d := diffFigures(got, base()); len(d) != 0 {
				t.Fatalf("identical figures differ: %q", d)
			}
			tc.edit(got)
			if d := diffFigures(got, base()); len(d) != 1 || d[0] != tc.want {
				t.Errorf("got %q, want [%q]", d, tc.want)
			}
		})
	}
}
