// Package experiments regenerates every table and figure of the paper's
// evaluation (§5): Table 3 (workload characterisation), Figures 5a/5b
// (microbenchmark throughput, 1 and 4 threads), Figure 6 (logging writes),
// Figures 7a/7b (NVRAM writes and SSP write breakdown), Figure 8 (NVRAM
// latency sensitivity), Figure 9 (SSP cache latency sensitivity), and
// Tables 4/5 (real-workload speedup and write savings). `sspbench -list`
// is the experiment index.
//
// Each runner returns structured rows and renders the same series the
// paper reports; absolute numbers come from the simulator, shapes are what
// is compared.
package experiments

import (
	"fmt"

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
// gone; ROADMAP item 2's regime map rebuilds it.
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
// Figure 5 — microbenchmark throughput (normalised to UNDO-LOG).

// Fig5Row is one workload's normalised TPS.
type Fig5Row struct {
	Kind workload.Kind
	TPS  map[ssp.Backend]float64 // normalised to UNDO-LOG
	Raw  map[ssp.Backend]float64 // absolute TPS
}

// Fig5 runs the seven microbenchmarks with the given client count
// (Figure 5a: 1 thread, Figure 5b: 4 threads).
func Fig5(sc Scale, clients int) []Fig5Row {
	var rows []Fig5Row
	for _, k := range workload.Micro() {
		row := runAll(sc, k, clients, nil)
		base := row.Results[ssp.UndoLog].TPS
		r := Fig5Row{Kind: k, TPS: map[ssp.Backend]float64{}, Raw: map[ssp.Backend]float64{}}
		for _, b := range ssp.Backends() {
			r.Raw[b] = row.Results[b].TPS
			r.TPS[b] = row.Results[b].TPS / base
		}
		rows = append(rows, r)
	}
	return rows
}

// RenderFig5 formats the normalised-TPS series.
func RenderFig5(rows []Fig5Row, clients int) string {
	header := []string{fmt.Sprintf("Workload (%d thread)", clients), "UNDO-LOG", "REDO-LOG", "SSP"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{
			r.Kind.String(),
			fmt.Sprintf("%.2f", r.TPS[ssp.UndoLog]),
			fmt.Sprintf("%.2f", r.TPS[ssp.RedoLog]),
			fmt.Sprintf("%.2f", r.TPS[ssp.SSP]),
		})
	}
	body = append(body, geomeanRow("geomean", rows, func(r Fig5Row, b ssp.Backend) float64 { return r.TPS[b] }))
	return stats.Table(header, body)
}

func geomeanRow[T any](label string, rows []T, get func(T, ssp.Backend) float64) []string {
	out := []string{label}
	for _, b := range ssp.Backends() {
		prod := 1.0
		for _, r := range rows {
			prod *= get(r, b)
		}
		out = append(out, fmt.Sprintf("%.2f", pow(prod, 1.0/float64(len(rows)))))
	}
	return out
}

func pow(x, e float64) float64 {
	// Tiny stdlib-free helper via math? math is stdlib; keep it simple.
	return mathPow(x, e)
}

// ---------------------------------------------------------------------------
// Figure 6 — logging writes (normalised to UNDO-LOG, lower is better).

// Fig6Row is one workload's normalised non-data ("logging") write bytes.
type Fig6Row struct {
	Kind  workload.Kind
	Bytes map[ssp.Backend]uint64
	Norm  map[ssp.Backend]float64
}

// Fig6 measures logging writes for the seven microbenchmarks.
func Fig6(sc Scale, clients int) []Fig6Row {
	var rows []Fig6Row
	for _, k := range workload.Micro() {
		row := runAll(sc, k, clients, nil)
		r := Fig6Row{Kind: k, Bytes: map[ssp.Backend]uint64{}, Norm: map[ssp.Backend]float64{}}
		for _, b := range ssp.Backends() {
			st := row.Results[b].Stats
			r.Bytes[b] = st.LoggingBytes()
		}
		base := float64(r.Bytes[ssp.UndoLog])
		for _, b := range ssp.Backends() {
			r.Norm[b] = float64(r.Bytes[b]) / base
		}
		rows = append(rows, r)
	}
	return rows
}

// RenderFig6 formats the logging-writes series.
func RenderFig6(rows []Fig6Row) string {
	header := []string{"Workload", "UNDO-LOG", "REDO-LOG", "SSP"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{
			r.Kind.String(),
			fmt.Sprintf("%.2f", r.Norm[ssp.UndoLog]),
			fmt.Sprintf("%.2f", r.Norm[ssp.RedoLog]),
			fmt.Sprintf("%.2f", r.Norm[ssp.SSP]),
		})
	}
	body = append(body, geomeanRow("geomean", rows, func(r Fig6Row, b ssp.Backend) float64 { return r.Norm[b] }))
	return stats.Table(header, body)
}

// ---------------------------------------------------------------------------
// Figure 7 — NVRAM writes and SSP breakdown.

// Fig7Row carries total normalised NVRAM write bytes plus SSP's breakdown.
type Fig7Row struct {
	Kind workload.Kind
	Norm map[ssp.Backend]float64 // total write bytes normalised to UNDO

	// SSP write breakdown in percent (Figure 7b).
	DataPct, JournalPct, ConsolidationPct, CheckpointPct float64
}

// Fig7 measures total NVRAM writes (7a) and SSP's breakdown (7b).
func Fig7(sc Scale, clients int) []Fig7Row {
	var rows []Fig7Row
	for _, k := range workload.Micro() {
		row := runAll(sc, k, clients, nil)
		r := Fig7Row{Kind: k, Norm: map[ssp.Backend]float64{}}
		base := func() float64 {
			st := row.Results[ssp.UndoLog].Stats
			return float64(st.TotalWriteBytes())
		}()
		for _, b := range ssp.Backends() {
			st := row.Results[b].Stats
			r.Norm[b] = float64(st.TotalWriteBytes()) / base
		}
		st := row.Results[ssp.SSP].Stats
		total := float64(st.TotalWriteBytes())
		data := float64(st.WriteBytes(stats.CatData))
		journal := float64(st.WriteBytes(stats.CatMetaJournal) + st.WriteBytes(stats.CatControl) + st.WriteBytes(stats.CatUndoLog) + st.WriteBytes(stats.CatCommitRecord))
		consol := float64(st.WriteBytes(stats.CatConsolidation))
		ckpt := float64(st.WriteBytes(stats.CatCheckpoint))
		r.DataPct = 100 * data / total
		r.JournalPct = 100 * journal / total
		r.ConsolidationPct = 100 * consol / total
		r.CheckpointPct = 100 * ckpt / total
		rows = append(rows, r)
	}
	return rows
}

// RenderFig7a formats the total-writes series.
func RenderFig7a(rows []Fig7Row) string {
	header := []string{"Workload", "UNDO-LOG", "REDO-LOG", "SSP"}
	var body [][]string
	for _, r := range rows {
		body = append(body, []string{
			r.Kind.String(),
			fmt.Sprintf("%.2f", r.Norm[ssp.UndoLog]),
			fmt.Sprintf("%.2f", r.Norm[ssp.RedoLog]),
			fmt.Sprintf("%.2f", r.Norm[ssp.SSP]),
		})
	}
	body = append(body, geomeanRow("geomean", rows, func(r Fig7Row, b ssp.Backend) float64 { return r.Norm[b] }))
	return stats.Table(header, body)
}

// RenderFig7b formats SSP's write breakdown.
func RenderFig7b(rows []Fig7Row) string {
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
