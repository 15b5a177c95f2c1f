// TestPaperFigures regenerates the paper's evaluation — Tables 3–5, Figs
// 5–9, the six ablations, the recovery sweep and cells of every
// beyond-paper sweep, whose tables it logs — at a fixed small scale and
// holds every value to ci/bench_baseline.json at exact float64 equality.
// The same pass fails on an ssp.Config field that no machine it builds
// and no crash class sets. Every simulated number is a pure function of
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
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/crashsweep"
	"repro/internal/experiments"
	"repro/internal/machine"
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

// smokeScale is the multi-core smokes' size: ops operations over 4096
// items, the workload package's defaults otherwise.
func smokeScale(ops int) experiments.Scale {
	return experiments.Scale{Ops: ops, Items: 4096, Seed: 0xE0}
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
	run  func(f figures, t *testing.T)
}{
	{"Table3", func(f figures, _ *testing.T) {
		for _, r := range experiments.Table3(paperScale()) {
			f.put("BenchmarkTable3_Characterisation", r.Kind.String()+"_lines/txn", r.AvgLines)
		}
	}},
	{"Fig5a-7", func(f figures, _ *testing.T) {
		for _, r := range experiments.Micro(paperScale(), 1) {
			f.put("BenchmarkFig5a_MicroTPS_1Thread", r.Kind.String()+"_SSP/UNDO", r.TPS[ssp.SSP])
			f.put("BenchmarkFig6_LoggingWrites", r.Kind.String()+"_SSP/UNDO", r.Logging[ssp.SSP])
			f.put("BenchmarkFig7a_NVRAMWrites", r.Kind.String()+"_SSP/UNDO", r.Writes[ssp.SSP])
			f.put("BenchmarkFig7b_SSPWriteBreakdown", r.Kind.String()+"_consol%", r.ConsolidationPct)
		}
	}},
	{"Fig5b", func(f figures, _ *testing.T) {
		for _, r := range experiments.Micro(paperScale(), 4) {
			f.put("BenchmarkFig5b_MicroTPS_4Threads", r.Kind.String()+"_SSP/UNDO", r.TPS[ssp.SSP])
		}
	}},
	{"Fig8", func(f figures, _ *testing.T) {
		for _, pt := range experiments.Fig8(shortScale()) {
			if pt.Kind == workload.BTreeRand {
				f.put("BenchmarkFig8_NVRAMLatencySweep", "BTree_SSP_kTPS_x"+strconv.Itoa(pt.Multiple), pt.TPS[ssp.SSP]/1e3)
			}
		}
	}},
	{"Fig9", func(f figures, _ *testing.T) {
		for _, pt := range experiments.Fig9(shortScale()) {
			if pt.Kind == workload.SPS {
				f.put("BenchmarkFig9_SSPCacheLatencySweep", "SPS_speedup_lat"+strconv.Itoa(pt.Latency), pt.Speedup)
			}
		}
	}},
	{"Table45", func(f figures, _ *testing.T) {
		for _, r := range experiments.Table45(paperScale()) {
			f.put("BenchmarkTable4_RealWorkloadSpeedup", r.Kind.String()+"_vsUNDO_%", r.SpeedupOver[ssp.UndoLog])
			f.put("BenchmarkTable4_RealWorkloadSpeedup", r.Kind.String()+"_vsREDO_%", r.SpeedupOver[ssp.RedoLog])
			f.put("BenchmarkTable5_RealWorkloadWriteSaving", r.Kind.String()+"_vsUNDO_%", r.SavingOver[ssp.UndoLog])
			f.put("BenchmarkTable5_RealWorkloadWriteSaving", r.Kind.String()+"_vsREDO_%", r.SavingOver[ssp.RedoLog])
		}
	}},
	// The design-choice ablations `sspbench -exp ablate` prints, at
	// shortScale: each table's rows gated under BenchmarkAblation_<ID>.
	{"Ablations", func(f figures, _ *testing.T) {
		for _, t := range experiments.Ablations(shortScale()) {
			putAblation(f, "BenchmarkAblation_"+t.ID, t.Rows)
		}
	}},
	{"RecoveryEffort", func(f figures, _ *testing.T) {
		sc := paperScale()
		sc.Ops = 400
		for _, r := range experiments.RecoveryEffort(sc) {
			f.put("BenchmarkRecoveryEffort", "replayed_j"+strconv.Itoa(r.JournalKB), float64(r.ReplayedRecords))
		}
	}},
	// The beyond-paper sweeps `sspbench -exp` prints, each gated at its
	// smoke cells and logged as the sweep renders them. The 4- and 8-core
	// SSP memcached cells on 4 channels and 4 journal shards (`-exp
	// journal`; the 8-core cell is the scale smoke).
	{"JournalSweep", func(f figures, t *testing.T) {
		g := experiments.JournalSweep(smokeScale(4000), workload.Memcached, 4, []int{4}, []int{4, 8})
		par, scale := g.Cells[0], g.Cells[1]
		f.put("BenchmarkParallelSmoke", "SSP_cTPS", par.TPS())
		f.put("BenchmarkParallelSmoke", "SSP_serial_cTPS", par.BaseTPS())
		f.put("BenchmarkParallelSmoke", "SSP_speedup", par.Speedup())
		f.put("BenchmarkParallelSmoke", "SSP_barrierwait_cycles", float64(par.Parallel.Stats.CommitBarrierWait))
		f.put("BenchmarkScaleSmoke", "Scale_cTPS", scale.TPS())
		f.put("BenchmarkScaleSmoke", "Scale_speedup", scale.Speedup())
		f.put("BenchmarkScaleSmoke", "Scale_windows", float64(scale.Parallel.WindowSched.Windows))
		t.Log(experiments.RenderGrid(g))
	}},
	// Memcached on every backend at 4 cores against its 1-core run (`-exp
	// parallel`).
	{"ParallelScaling", func(f figures, t *testing.T) {
		g := experiments.ParallelScaling(smokeScale(4000), workload.Memcached, 4)
		for _, c := range g.Cells {
			f.put("BenchmarkParallelSweep", "Memcached_"+c.Row+"_serial_cTPS", c.BaseTPS())
			f.put("BenchmarkParallelSweep", "Memcached_"+c.Row+"_4core_cTPS", c.TPS())
		}
		t.Log(experiments.RenderGrid(g))
	}},
	// The seven microbenchmarks and Vacation on the parallel driver, SSP, 2
	// cores at paperScale: committed TPS and total NVRAM write bytes, so
	// every kind's RunParallel build has a gated cell.
	{"ParallelKinds", func(f figures, _ *testing.T) {
		sc := paperScale()
		for _, k := range append(workload.Micro(), workload.Vacation) {
			p := workload.Params{Kind: k, Backend: ssp.SSP, Clients: 2, Ops: sc.Ops, Keys: sc.Keys,
				Elems: sc.Elems, Items: sc.Items, Tuples: sc.Tuples, Seed: sc.Seed}
			p.Machine.STLBEntries = sc.STLB
			r := workload.RunParallel(p)
			f.put("BenchmarkParallelKinds", k.String()+"_2core_cTPS", r.CommittedTPS)
			f.put("BenchmarkParallelKinds", k.String()+"_2core_nvram_bytes", float64(r.Stats.TotalWriteBytes()))
		}
	}},
	// SSP memcached at 4 cores on 1 and 4 channels (`-exp channels`), with
	// one journal shard, and on one channel with four shards (`-exp
	// journal`); four channels with four shards is ParallelSmoke's cell. So
	// the Channels knob has a gated cell on each side at both shard counts.
	{"ChannelSweep", func(f figures, t *testing.T) {
		sc := smokeScale(4000)
		channels := experiments.ChannelSweep(sc, workload.Memcached, ssp.SSP, []int{1, 4}, []int{4})
		shards := experiments.JournalSweep(sc, workload.Memcached, 1, []int{4}, []int{4})
		for _, c := range channels.Cells {
			f.put("BenchmarkChannelSweep", "Memcached_"+c.Row+"ch_1sh_serial_cTPS", c.BaseTPS())
			f.put("BenchmarkChannelSweep", "Memcached_"+c.Row+"ch_1sh_4core_cTPS", c.TPS())
		}
		c := shards.Cells[0]
		f.put("BenchmarkChannelSweep", "Memcached_1ch_4sh_serial_cTPS", c.BaseTPS())
		f.put("BenchmarkChannelSweep", "Memcached_1ch_4sh_4core_cTPS", c.TPS())
		t.Log(experiments.RenderGrid(channels))
		t.Log(experiments.RenderGrid(shards))
	}},
	// The 2-core memcached cross-shard mix at a 50% global fraction over 4
	// journal shards, against 1 core (`-exp crossshard`).
	{"CrossShardSweep", func(f figures, t *testing.T) {
		g := experiments.CrossShardSweep(smokeScale(4000), workload.MemcachedCross, 4, 4, []int{50}, []int{2})
		c := g.Cells[0]
		const b = "BenchmarkCrossShardSmoke"
		f.put(b, "SSPCross_cTPS", c.TPS())
		f.put(b, "SSPCross_speedup_50pct", c.Speedup())
		f.put(b, "SSPCross_barrierwait_cycles", float64(c.Parallel.Stats.CommitBarrierWait))
		t.Log(experiments.RenderGrid(g))
	}},
	// The 4-core single-shard memcached mix, synchronous against relaxed
	// with a 100k-cycle epoch (`-exp epoch`): acknowledged and durable TPS
	// bracket the durability lag.
	{"EpochSweep", func(f figures, t *testing.T) {
		mix := experiments.EpochMix{Kind: workload.Memcached, Shards: 1, Channels: 4}
		points := experiments.EpochSweep(smokeScale(4000), mix, []int{0, 100000}, []int{4})
		sync, rel := points[0].Parallel, points[1]
		const b = "BenchmarkRelaxedSmoke"
		f.put(b, "Relaxed_sync_cTPS", sync.CommittedTPS)
		f.put(b, "Relaxed_ack_cTPS", rel.Parallel.CommittedTPS)
		f.put(b, "Relaxed_durable_TPS", rel.Parallel.TPS)
		f.put(b, "Relaxed_ack_speedup", rel.Parallel.CommittedTPS/rel.BaseTPS)
		f.put(b, "Relaxed_sync_barrier_pct", 100*experiments.BarrierWaitShare(sync, 4))
		f.put(b, "Relaxed_epoch_barrier_pct", 100*experiments.BarrierWaitShare(rel.Parallel, 4))
		f.put(b, "Relaxed_commits", float64(rel.Parallel.Stats.RelaxedCommits))
		f.put(b, "Relaxed_hardened_epochs", float64(rel.Parallel.Stats.HardenedEpochs))
		f.put(b, "Relaxed_harden_lag_cycles", experiments.MeanHardenLag(rel.Parallel.Stats))
		t.Log(experiments.RenderEpoch(points))
	}},
	// The 4-core memcached cross-shard mix at a 50% global fraction over 4
	// journal shards, relaxed with a 100k-cycle epoch: coordinator epochs
	// buffer global Ends and hold their participant shards, whose
	// checkpoints harden the holders first. No sweep prints this cell.
	{"CrossRelaxedSmoke", func(f figures, _ *testing.T) {
		p := workload.Params{Kind: workload.MemcachedCross, Backend: ssp.SSP, Clients: 4, Ops: 4000, Items: 4096, Seed: 0xE0}
		p.CrossPct = 50
		p.Relaxed = true
		p.Machine.Channels = 4
		p.Machine.JournalShards = 4
		p.Machine.DurabilityEpoch = 100000
		rel := workload.RunParallel(p)
		const b = "BenchmarkCrossRelaxedSmoke"
		f.put(b, "CrossRelaxed_ack_cTPS", rel.CommittedTPS)
		f.put(b, "CrossRelaxed_durable_TPS", rel.TPS)
		f.put(b, "CrossRelaxed_global_commits", float64(rel.Stats.GlobalCommits))
		f.put(b, "CrossRelaxed_prepare_records", float64(rel.Stats.PrepareRecords))
		f.put(b, "CrossRelaxed_hardened_epochs", float64(rel.Stats.HardenedEpochs))
		f.put(b, "CrossRelaxed_checkpoints", float64(rel.Stats.Checkpoints))
		f.put(b, "CrossRelaxed_harden_lag_cycles", experiments.MeanHardenLag(rel.Stats))
	}},
	// The open-loop sharded-kv service on 4 cores at YCSB-style skew (`-exp
	// serve`): a closed-loop probe sets the capacity, then sync and relaxed
	// serve half of it, below the queueing knee.
	{"ServeSweep", func(f figures, t *testing.T) {
		points := experiments.ServeSweep(smokeScale(12000), []float64{0.99}, []int{50}, []int{4}, 100000)
		probe, sync, rel := points[0].Res, points[1].Res, points[2].Res
		const b = "BenchmarkServeSmoke"
		f.put(b, "Serve_cTPS", probe.CommittedTPS)
		f.put(b, "Serve_p50", float64(sync.LatencyP50))
		f.put(b, "Serve_p99", float64(sync.LatencyP99))
		f.put(b, "Serve_p999", float64(sync.LatencyP999))
		f.put(b, "Serve_relaxed_p99", float64(rel.LatencyP99))
		f.put(b, "Serve_relaxed_p999", float64(rel.LatencyP999))
		f.put(b, "Serve_harden_lag_cycles", experiments.MeanHardenLag(rel.Stats))
		f.put(b, "Serve_sync_over_relaxed_p99", float64(sync.LatencyP99)/float64(rel.LatencyP99))
		t.Log(experiments.RenderServe(points))
	}},
	// The cache experiment's serve mix (4 cores, Zipfian keys, GET-path
	// recency stamps, a 256 KiB L3), bare and with a 1024-frame DRAM buffer
	// tier (`-exp cache`). The bare row is the sentinel that
	// DRAMCacheFrames = 0 still models the bare-NVRAM machine.
	{"CacheSweep", func(f figures, t *testing.T) {
		points := experiments.CacheSweep(smokeScale(8000), []float64{0.99}, []int{4}, []int{1024})
		pt := points[0]
		bare, cached := pt.Base.Stats, pt.Cached.Stats
		const b = "BenchmarkCacheSmoke"
		f.put(b, "Cache_cTPS", pt.Cached.CommittedTPS)
		f.put(b, "Cache_bare_cTPS", pt.Base.CommittedTPS)
		f.put(b, "Cache_hit_pct", 100*float64(cached.DRAMCacheHits)/float64(cached.DRAMCacheReads))
		f.put(b, "Cache_bare_dataWr_lines", float64(experiments.DataWriteLines(bare)))
		f.put(b, "Cache_dataWr_lines", float64(experiments.DataWriteLines(cached)))
		f.put(b, "Cache_speedup", pt.Speedup)
		t.Log(experiments.RenderCache(points))
	}},
	// SSP memcached at 4 cores under each window size of the scale-out
	// sweep (`-exp scale`).
	{"ScaleSweep", func(f figures, t *testing.T) {
		g := experiments.ScaleSweep(shortScale(), workload.Memcached, experiments.ScaleWindows(), []int{4})
		for _, c := range g.Cells {
			f.put("BenchmarkScaleSweep", "Memcached_4core_W"+c.Row+"_speedup", c.Speedup())
		}
		t.Log(experiments.RenderGrid(g))
	}},
	// The simulated cycles of one minimal two-store transaction on a fresh
	// machine of each design: the mechanism overhead itself.
	{"TxnPath", func(f figures, _ *testing.T) {
		for _, backend := range ssp.Backends() {
			m := txnPathMachine(backend)
			txnPathTxn(m.Core(0), 0)
			f.put("BenchmarkTxnPath/"+backend.String(), "simcycles/txn", float64(m.MaxClock()))
		}
	}},
}

// putAblation gates one ablation table: each row's TPS, plus its fallbacks
// and its parallel speedup when the table carries them (the write-set
// buffer and the write-back engines).
func putAblation(f figures, bench string, rows []experiments.AblationRow) {
	fallbacks := slices.ContainsFunc(rows, func(r experiments.AblationRow) bool { return r.Fallback > 0 })
	for _, r := range rows {
		key := r.Kind.String() + "_" + r.Name
		f.put(bench, key+"_TPS", r.TPS)
		if fallbacks {
			f.put(bench, key+"_fallbacks", float64(r.Fallback))
		}
		if r.Speedup > 0 {
			f.put(bench, key+"_speedup", r.Speedup)
		}
	}
}

// configGateExempt names the ssp.Config fields no gated row needs to set,
// each with its reason. It is empty: every field has a gated setter.
var configGateExempt = map[string]string{}

func TestPaperFigures(t *testing.T) {
	// The config gate: every ssp.Config field is set to a non-zero value
	// (the zero value selects the default) by some machine this pass builds
	// or by some crash class row.
	var built []ssp.Config
	prev := machine.RecordConfig
	machine.RecordConfig = func(cfg any) { built = append(built, cfg.(ssp.Config)) }
	defer func() { machine.RecordConfig = prev }()

	got := figures{}
	for _, row := range paperRows {
		start := time.Now()
		row.run(got, t)
		t.Logf("%s ran in %v", row.name, time.Since(start).Round(time.Millisecond))
	}
	for _, cl := range crashsweep.Classes {
		built = append(built, cl.Config)
	}
	if ungated, err := ungatedFields(built, configGateExempt); err != nil {
		t.Error(err)
	} else if len(ungated) > 0 {
		t.Errorf("ssp.Config fields that no gated row or crash class sets: %s", strings.Join(ungated, ", "))
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

// ungatedFields returns, in declaration order, every ssp.Config field that
// holds its zero value in each of configs and that exempt does not name. An
// exemption naming no ssp.Config field is an error, so the list cannot
// outlive its field.
func ungatedFields(configs []ssp.Config, exempt map[string]string) ([]string, error) {
	typ := reflect.TypeOf(ssp.Config{})
	for _, name := range sortedKeys(exempt) {
		if _, ok := typ.FieldByName(name); !ok {
			return nil, fmt.Errorf("config gate exemption %q names no ssp.Config field", name)
		}
	}
	var out []string
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		set := slices.ContainsFunc(configs, func(c ssp.Config) bool { return !reflect.ValueOf(c).Field(i).IsZero() })
		if _, ok := exempt[name]; !ok && !set {
			out = append(out, name)
		}
	}
	return out, nil
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

// The config gate fails closed: a field that no config sets is named, an
// exempt one is not, and an exemption naming no field is an error.
func TestUngatedFields(t *testing.T) {
	// every sets each ssp.Config field to a non-zero value, minus skip.
	every := func(skip string) ssp.Config {
		var c ssp.Config
		v := reflect.ValueOf(&c).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); {
			case v.Type().Field(i).Name == skip:
			case f.CanInt():
				f.SetInt(1)
			case f.CanUint():
				f.SetUint(1)
			case f.CanFloat():
				f.SetFloat(1)
			default:
				f.SetBool(true)
			}
		}
		return c
	}
	if got, err := ungatedFields([]ssp.Config{every("")}, nil); err != nil || len(got) != 0 {
		t.Fatalf("a config setting every field: ungated %q, error %v", got, err)
	}
	for _, tc := range []struct {
		name    string
		configs []ssp.Config
		exempt  map[string]string
		want    []string
		wantErr string
	}{
		{"unset field named", []ssp.Config{every("WSBEntries"), {Cores: 4}}, nil, []string{"WSBEntries"}, ""},
		{"exempt field not named", []ssp.Config{every("WSBEntries")}, map[string]string{"WSBEntries": "sizing"}, nil, ""},
		{"unknown exemption", []ssp.Config{every("")}, map[string]string{"NoSuchField": "deleted"}, nil,
			`config gate exemption "NoSuchField" names no ssp.Config field`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := ungatedFields(tc.configs, tc.exempt)
			gotErr := ""
			if err != nil {
				gotErr = err.Error()
			}
			if gotErr != tc.wantErr {
				t.Fatalf("error %q, want %q", gotErr, tc.wantErr)
			}
			if !slices.Equal(got, tc.want) {
				t.Errorf("ungated %q, want %q", got, tc.want)
			}
		})
	}
}
