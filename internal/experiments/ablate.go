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

// AblateSubPage compares 64 B sub-pages (the default) against 256 B
// sub-pages (the Optane-granularity variant of §4.3, which shrinks the TLB
// bitmaps 4×) on the microbenchmarks.
func AblateSubPage(sc Scale) []AblationRow {
	var rows []AblationRow
	for _, k := range []workload.Kind{workload.BTreeRand, workload.RBTreeRand, workload.HashRand, workload.SPS} {
		for _, lines := range []int{1, 4} {
			p := sc.params(k, ssp.SSP, 1)
			p.Machine.SubPageLines = lines
			res := workload.Run(p)
			st := res.Stats
			rows = append(rows, AblationRow{
				Name:   fmt.Sprintf("subpage=%dB", lines*64),
				Kind:   k,
				TPS:    res.TPS,
				Writes: st.TotalWriteBytes(),
			})
		}
	}
	return rows
}

// AblateWSB shrinks the write-set buffer until transactions overflow into
// the software fall-back path (§3.5), showing its cost.
func AblateWSB(sc Scale) []AblationRow {
	var rows []AblationRow
	for _, entries := range []int{64, 4, 2} {
		p := sc.params(workload.RBTreeRand, ssp.SSP, 1)
		p.Machine.WSBEntries = entries
		res := workload.Run(p)
		st := res.Stats
		rows = append(rows, AblationRow{
			Name:     fmt.Sprintf("wsb=%d", entries),
			Kind:     workload.RBTreeRand,
			TPS:      res.TPS,
			Writes:   st.TotalWriteBytes(),
			Fallback: st.FallbackTxns,
		})
	}
	return rows
}

// AblateSSPCacheResidency shrinks the L3-resident share of the SSP cache,
// forcing DRAM-latency metadata fetches (the effect Figure 9 sweeps via
// latency).
func AblateSSPCacheResidency(sc Scale) []AblationRow {
	var rows []AblationRow
	for _, resident := range []int{1024, 128, 16} {
		p := sc.params(workload.SPS, ssp.SSP, 1)
		p.Machine.SSPResident = resident
		res := workload.Run(p)
		st := res.Stats
		rows = append(rows, AblationRow{
			Name:   fmt.Sprintf("resident=%d", resident),
			Kind:   workload.SPS,
			TPS:    res.TPS,
			Writes: st.TotalWriteBytes(),
		})
	}
	return rows
}

// AblateRedoEngines compares REDO-LOG's single background write-back engine
// (the modelled DHTM behaviour, which pins its parallel speedup near 1x)
// against per-core engines on the 4-core concurrent memcached run — the
// ROADMAP's write-back ablation. TPS is committed TPS of the parallel run;
// Speedup is against the same serial 1-core baseline, so the engine count's
// parallel-speedup delta reads directly off the column.
func AblateRedoEngines(sc Scale) []AblationRow {
	const cores = 4
	serial := workload.Run(sc.params(workload.Memcached, ssp.RedoLog, 1))
	sTPS := CommittedTPS(serial.Cycles, serial)
	var rows []AblationRow
	for _, engines := range []int{1, 2, cores} {
		p := sc.params(workload.Memcached, ssp.RedoLog, cores)
		p.Machine.RedoWriteBackEngines = engines
		res := workload.RunParallel(p)
		row := AblationRow{
			Name:   fmt.Sprintf("wbengines=%d", engines),
			Kind:   workload.Memcached,
			TPS:    CommittedTPS(res.Cycles, res.Result),
			Writes: res.Stats.TotalWriteBytes(),
		}
		if sTPS > 0 {
			row.Speedup = row.TPS / sTPS
		}
		rows = append(rows, row)
	}
	return rows
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
