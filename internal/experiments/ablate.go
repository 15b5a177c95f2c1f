package experiments

import (
	"fmt"

	"repro/internal/workload"
	"repro/ssp"
)

// Ablations beyond the paper's figures, for the design choices the paper
// calls out (§3.4 eager consolidation, §4.2 write-set buffer, §4.3 sub-page
// granularity and hardware-cost reduction).

// AblationRow is one configuration's outcome on one workload.
type AblationRow struct {
	Name     string
	Kind     workload.Kind
	TPS      float64
	Writes   uint64 // total NVRAM write bytes
	Fallback uint64 // transactions diverted to the software path
	// Speedup is the parallel speedup over a serial 1-core baseline; only
	// the concurrency ablations (write-back engines) fill it.
	Speedup float64
}

// AblationTable is one design choice's rows. ID names its gate in
// TestPaperFigures (BenchmarkAblation_<ID>); Title heads its `sspbench -exp
// ablate` table.
type AblationTable struct {
	ID, Title string
	Rows      []AblationRow
}

// setting is one row's configuration: its name and its departure from the
// default machine (nil: the default itself).
type setting struct {
	name string
	set  func(*ssp.Config)
}

// ablations lists the tables. Each runs every setting on every kind (kind
// outer) on backend with cores clients; a multi-core table runs on the
// parallel driver, reports committed TPS and its speedup over the serial
// 1-core run of the same kind and backend.
var ablations = []struct {
	id, title string
	kinds     []workload.Kind
	backend   ssp.Backend
	cores     int
	settings  []setting
}{
	// 64 B sub-pages (the default) against 256 B sub-pages, the
	// Optane-granularity variant of §4.3 that shrinks the TLB bitmaps 4×.
	{"SubPageGranularity", "sub-page granularity (§4.3)",
		[]workload.Kind{workload.BTreeRand, workload.RBTreeRand, workload.HashRand, workload.SPS}, ssp.SSP, 1,
		[]setting{{"subpage=64B", nil}, {"subpage=256B", func(c *ssp.Config) { c.SubPageLines = 4 }}}},
	// The write-set buffer shrunk until transactions overflow into the
	// software fall-back path (§3.5), showing its cost.
	{"WSBCapacity", "write-set buffer capacity (§4.2)",
		[]workload.Kind{workload.RBTreeRand}, ssp.SSP, 1,
		[]setting{{"wsb=64", nil}, {"wsb=4", func(c *ssp.Config) { c.WSBEntries = 4 }}, {"wsb=2", func(c *ssp.Config) { c.WSBEntries = 2 }}}},
	// The L3-resident share of the SSP cache shrunk, forcing DRAM-latency
	// metadata fetches (the effect Figure 9 sweeps via latency).
	{"SSPCacheResidency", "SSP-cache L3 residency",
		[]workload.Kind{workload.SPS}, ssp.SSP, 1,
		[]setting{{"resident=1024", nil}, {"resident=128", func(c *ssp.Config) { c.SSPResident = 128 }}, {"resident=16", func(c *ssp.Config) { c.SSPResident = 16 }}}},
	// Eager consolidation (the paper's implementation) against lazy, its
	// flagged future work (§3.4), on the consolidation-heavy workloads.
	{"ConsolidationPolicy", "consolidation policy (§3.4 eager vs lazy)",
		[]workload.Kind{workload.SPS, workload.RBTreeRand}, ssp.SSP, 1,
		[]setting{{"consol=eager", nil}, {"consol=lazy", func(c *ssp.Config) { c.LazyConsolidation = true }}}},
	// The flip-current-bit coherence broadcast (§4.1.1) against TLB
	// shootdowns (§4.3's simpler-hardware alternative).
	{"FlipMechanism", "flip mechanism (§4.1.1 broadcast vs §4.3 shootdown)",
		[]workload.Kind{workload.RBTreeRand, workload.HashRand}, ssp.SSP, 1,
		[]setting{{"flip=broadcast", nil}, {"flip=shootdown", func(c *ssp.Config) { c.FlipViaShootdown = true }}}},
	// REDO-LOG's single background write-back engine (the modelled DHTM
	// behaviour, which pins its parallel speedup near 1x) against per-core
	// engines on the 4-core concurrent memcached run: the engine count's
	// parallel-speedup delta reads directly off the speedup column.
	{"RedoWriteBackEngines", "REDO write-back engines (DHTM single vs per-core, 4-core parallel)",
		[]workload.Kind{workload.Memcached}, ssp.RedoLog, 4,
		[]setting{{"wbengines=1", nil}, {"wbengines=2", func(c *ssp.Config) { c.RedoWriteBackEngines = 2 }}, {"wbengines=4", func(c *ssp.Config) { c.RedoWriteBackEngines = 4 }}}},
}

// Ablations runs every ablation table at sc. Each distinct run — the
// workload parameters and the driver — runs once: the default machine
// recurs across tables (RBTree-Rand in four of them) and is shared.
func Ablations(sc Scale) []AblationTable {
	type runKey struct {
		p        workload.Params
		parallel bool
	}
	runs := map[runKey]workload.Result{}
	run := func(p workload.Params, parallel bool) workload.Result {
		k := runKey{p, parallel}
		if r, ok := runs[k]; ok {
			return r
		}
		var r workload.Result
		if parallel {
			r = workload.RunParallel(p).Result
		} else {
			r = workload.Run(p)
		}
		runs[k] = r
		return r
	}
	var tables []AblationTable
	for _, a := range ablations {
		t := AblationTable{ID: a.id, Title: a.title}
		for _, k := range a.kinds {
			var serialTPS float64
			if a.cores > 1 {
				s := run(sc.params(k, a.backend, 1), false)
				serialTPS = CommittedTPS(s.Cycles, s)
			}
			for _, st := range a.settings {
				p := sc.params(k, a.backend, a.cores)
				if st.set != nil {
					st.set(&p.Machine)
				}
				res := run(p, a.cores > 1)
				row := AblationRow{Name: st.name, Kind: k, TPS: res.TPS, Writes: res.Stats.TotalWriteBytes(), Fallback: res.Stats.FallbackTxns}
				if a.cores > 1 {
					row.TPS = CommittedTPS(res.Cycles, res)
					if serialTPS > 0 {
						row.Speedup = row.TPS / serialTPS
					}
				}
				t.Rows = append(t.Rows, row)
			}
		}
		tables = append(tables, t)
	}
	return tables
}

// RenderAblations formats ablation rows; the speedup column appears only
// when a row carries one (the concurrency ablations).
func RenderAblations(title string, rows []AblationRow) string {
	withSpeedup := false
	for _, r := range rows {
		if r.Speedup > 0 {
			withSpeedup = true
		}
	}
	out := title + "\n"
	out += fmt.Sprintf("%-14s %-12s %12s %14s %10s", "Config", "Workload", "TPS", "NVRAM bytes", "Fallbacks")
	if withSpeedup {
		out += fmt.Sprintf(" %10s", "Speedup")
	}
	out += "\n"
	for _, r := range rows {
		out += fmt.Sprintf("%-14s %-12s %12.0f %14d %10d", r.Name, r.Kind, r.TPS, r.Writes, r.Fallback)
		if withSpeedup {
			out += fmt.Sprintf(" %9.2fx", r.Speedup)
		}
		out += "\n"
	}
	return out
}
