// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): Table 3 (workload characterisation), Figures 5a/5b
// (microbenchmark throughput, 1 and 4 threads), Figure 6 (logging writes),
// Figures 7a/7b (NVRAM writes and SSP write breakdown), Figure 8 (NVRAM
// latency sensitivity), Figure 9 (SSP cache latency sensitivity), and
// Tables 4/5 (real-workload speedup and write savings). It also holds the
// beyond-the-paper experiments: the design-choice ablations, the recovery
// sweep, the scaling grid that the parallel, channels, journal, crossshard
// and scale sweeps share (grid.go), and the epoch, serve and cache sweeps.
// `sspbench -list` is the experiment index.
//
// Each runner returns structured rows and renders the same series the
// paper reports; absolute numbers come from the simulator, shapes are what
// is compared.
package experiments

import (
	"fmt"
	"math"

	"repro/internal/stats"
	"repro/internal/workload"
	"repro/ssp"
)

// Scale selects run sizes. Small keeps every experiment under seconds
// (tests, TestPaperFigures); Full is the documented reproduction scale.
type Scale struct {
	Ops    int
	Keys   uint64
	Elems  int
	Items  int
	Tuples int
	Seed   uint64
	// STLB overrides the per-core L2 STLB entries (0 = the default 1024).
	// Small scales shrink it so TLB-pressure effects (consolidation) stay
	// observable with fast prefills.
	STLB int
}

// SmallScale returns the CI-friendly sizes. The SPS array exceeds the TLB
// hierarchy's reach so consolidation is exercised, as in the paper.
func SmallScale() Scale {
	return Scale{Ops: 1500, Keys: 8192, Elems: 1 << 19, Items: 4096, Tuples: 4096, Seed: 0xE0}
}

// FullScale returns the reproduction sizes (`sspbench -scale full`). The
// tree/hash working sets sit within the TLB hierarchy's reach (the regime
// the paper's batching argument assumes); the SPS array exceeds it, making
// SPS the consolidation-heavy outlier. The measured record of the SPS cliff
// and of the tree working-set cliff just past TLB reach (Keys=131072) is
// gone; ROADMAP item 4's regime map rebuilds it.
func FullScale() Scale {
	return Scale{Ops: 20000, Keys: 65536, Elems: 1 << 20, Items: 16384, Tuples: 16384, Seed: 0xE0}
}

func (sc Scale) params(k workload.Kind, b ssp.Backend, clients int) workload.Params {
	p := workload.Params{
		Kind:    k,
		Backend: b,
		Clients: clients,
		Ops:     sc.Ops,
		Keys:    sc.Keys,
		Elems:   sc.Elems,
		Items:   sc.Items,
		Tuples:  sc.Tuples,
		Seed:    sc.Seed,
	}
	p.Machine.STLBEntries = sc.STLB
	return p
}

// Row is one workload's measurements across the three designs.
type Row struct {
	Kind    workload.Kind
	Results map[ssp.Backend]workload.Result
}

// runAll runs every backend for one workload.
func runAll(sc Scale, k workload.Kind, clients int, tune func(*workload.Params)) Row {
	row := Row{Kind: k, Results: map[ssp.Backend]workload.Result{}}
	for _, b := range ssp.Backends() {
		p := sc.params(k, b, clients)
		if tune != nil {
			tune(&p)
		}
		row.Results[b] = workload.Run(p)
	}
	return row
}

// ---------------------------------------------------------------------------
// Table 3 — workload write-set characterisation.

// Table3Row mirrors a row of the paper's Table 3.
type Table3Row struct {
	Kind     workload.Kind
	AvgLines float64
	AvgPages float64
	MaxPages int
}

// Table3 measures the write-set size of every workload under SSP.
func Table3(sc Scale) []Table3Row {
	var rows []Table3Row
	for _, k := range workload.All() {
		clients := 1
		if k == workload.Memcached || k == workload.Vacation {
			clients = 4
		}
		res := workload.Run(sc.params(k, ssp.SSP, clients))
		rows = append(rows, Table3Row{
			Kind:     k,
			AvgLines: res.WriteSet.AvgLines(),
			AvgPages: res.WriteSet.AvgPages(),
			MaxPages: res.WriteSet.MaxPages,
		})
	}
	return rows
}

// RenderTable3 formats Table 3 like the paper (avg lines / avg pages / max
// pages).
func RenderTable3(rows []Table3Row) string {
	header := []string{"Name", "WriteSet (lines/pages/max)"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{
			r.Kind.String(),
			fmt.Sprintf("%.0f/%.0f/%d", r.AvgLines, r.AvgPages, r.MaxPages),
		})
	}
	return stats.Table(header, body)
}

// ---------------------------------------------------------------------------
// Figures 5-7 — the seven microbenchmarks on the three designs.

// MicroRow is one microbenchmark's measurements, normalised to UNDO-LOG:
// throughput (Figure 5), logging writes (Figure 6), total NVRAM writes
// (Figure 7a) and SSP's write breakdown (Figure 7b).
type MicroRow struct {
	Kind    workload.Kind
	TPS     map[ssp.Backend]float64 // transactions per second
	Logging map[ssp.Backend]float64 // non-data ("logging") write bytes
	Writes  map[ssp.Backend]float64 // total NVRAM write bytes

	// SSP write breakdown in percent.
	DataPct, JournalPct, ConsolidationPct, CheckpointPct float64
}

// Micro runs the seven microbenchmarks with the given client count on every
// design (Figure 5a: 1 thread, Figure 5b: 4 threads; Figures 6 and 7 read
// the 1-thread rows).
func Micro(sc Scale, clients int) []MicroRow {
	var rows []MicroRow
	for _, k := range workload.Micro() {
		row := runAll(sc, k, clients, nil)
		undo := row.Results[ssp.UndoLog]
		r := MicroRow{Kind: k, TPS: map[ssp.Backend]float64{}, Logging: map[ssp.Backend]float64{}, Writes: map[ssp.Backend]float64{}}
		for _, b := range ssp.Backends() {
			res := row.Results[b]
			r.TPS[b] = res.TPS / undo.TPS
			r.Logging[b] = float64(res.Stats.LoggingBytes()) / float64(undo.Stats.LoggingBytes())
			r.Writes[b] = float64(res.Stats.TotalWriteBytes()) / float64(undo.Stats.TotalWriteBytes())
		}
		st := row.Results[ssp.SSP].Stats
		total := float64(st.TotalWriteBytes())
		journal := st.WriteBytes(stats.CatMetaJournal) + st.WriteBytes(stats.CatControl) + st.WriteBytes(stats.CatUndoLog) + st.WriteBytes(stats.CatCommitRecord)
		r.DataPct = 100 * float64(st.WriteBytes(stats.CatData)) / total
		r.JournalPct = 100 * float64(journal) / total
		r.ConsolidationPct = 100 * float64(st.WriteBytes(stats.CatConsolidation)) / total
		r.CheckpointPct = 100 * float64(st.WriteBytes(stats.CatCheckpoint)) / total
		rows = append(rows, r)
	}
	return rows
}

// renderNormalised formats one normalised-to-UNDO-LOG series of rows with a
// geometric-mean row.
func renderNormalised(first string, rows []MicroRow, get func(MicroRow) map[ssp.Backend]float64) string {
	header := []string{first, "UNDO-LOG", "REDO-LOG", "SSP"}
	var body [][]string
	for _, r := range rows {
		v := get(r)
		body = append(body, []string{
			r.Kind.String(),
			fmt.Sprintf("%.2f", v[ssp.UndoLog]),
			fmt.Sprintf("%.2f", v[ssp.RedoLog]),
			fmt.Sprintf("%.2f", v[ssp.SSP]),
		})
	}
	mean := []string{"geomean"}
	for _, b := range ssp.Backends() {
		prod := 1.0
		for _, r := range rows {
			prod *= get(r)[b]
		}
		mean = append(mean, fmt.Sprintf("%.2f", math.Pow(prod, 1.0/float64(len(rows)))))
	}
	return stats.Table(header, append(body, mean))
}

// RenderFig5 formats the normalised-TPS series.
func RenderFig5(rows []MicroRow, clients int) string {
	return renderNormalised(fmt.Sprintf("Workload (%d thread)", clients), rows, func(r MicroRow) map[ssp.Backend]float64 { return r.TPS })
}

// RenderFig6 formats the logging-writes series.
func RenderFig6(rows []MicroRow) string {
	return renderNormalised("Workload", rows, func(r MicroRow) map[ssp.Backend]float64 { return r.Logging })
}

// RenderFig7a formats the total-writes series.
func RenderFig7a(rows []MicroRow) string {
	return renderNormalised("Workload", rows, func(r MicroRow) map[ssp.Backend]float64 { return r.Writes })
}

// RenderFig7b formats SSP's write breakdown.
func RenderFig7b(rows []MicroRow) string {
	header := []string{"Workload", "Data%", "Journaling%", "Consolidation%", "Checkpointing%"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{
			r.Kind.String(),
			fmt.Sprintf("%.1f", r.DataPct),
			fmt.Sprintf("%.1f", r.JournalPct),
			fmt.Sprintf("%.1f", r.ConsolidationPct),
			fmt.Sprintf("%.1f", r.CheckpointPct),
		})
	}
	return stats.Table(header, body)
}
