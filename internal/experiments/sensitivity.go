package experiments

import (
	"fmt"

	"repro/internal/workload"
	"repro/ssp"
)

// ---------------------------------------------------------------------------
// Figure 8 — sensitivity to NVRAM latency (×1..×9 of DRAM latency).

// Fig8Point is one (workload, latency multiple) sample of absolute TPS.
type Fig8Point struct {
	Kind     workload.Kind
	Multiple int
	TPS      map[ssp.Backend]float64 // absolute transactions/second
}

// Fig8 sweeps NVRAM latency for RBTree-Rand and BTree-Rand (the paper's two
// representative workloads). NVRAM read and write are both set to
// multiple×50 ns.
func Fig8(sc Scale) []Fig8Point {
	var out []Fig8Point
	for _, k := range []workload.Kind{workload.RBTreeRand, workload.BTreeRand} {
		for _, mult := range []int{1, 3, 5, 7, 9} {
			pt := Fig8Point{Kind: k, Multiple: mult, TPS: map[ssp.Backend]float64{}}
			for _, b := range ssp.Backends() {
				p := sc.params(k, b, 1)
				p.Machine.NVRAMReadNS = float64(mult) * 50
				p.Machine.NVRAMWriteNS = float64(mult) * 50
				pt.TPS[b] = workload.Run(p).TPS
			}
			out = append(out, pt)
		}
	}
	return out
}

// RenderFig8 formats the latency sweep as TPS(K), one block per workload.
func RenderFig8(points []Fig8Point) string {
	out := ""
	var last workload.Kind = -1
	for _, pt := range points {
		if pt.Kind != last {
			if last >= 0 {
				out += "\n"
			}
			out += fmt.Sprintf("%s: TPS(K) vs NVRAM latency (multiple of DRAM)\n", pt.Kind)
			out += fmt.Sprintf("%-6s %10s %10s %10s\n", "x", "UNDO-LOG", "REDO-LOG", "SSP")
			last = pt.Kind
		}
		out += fmt.Sprintf("x%-5d %10.1f %10.1f %10.1f\n",
			pt.Multiple,
			pt.TPS[ssp.UndoLog]/1e3, pt.TPS[ssp.RedoLog]/1e3, pt.TPS[ssp.SSP]/1e3)
	}
	return out
}

// ---------------------------------------------------------------------------
// Figure 9 — sensitivity to the SSP cache latency.

// Fig9Point is one (workload, latency) sample of SSP's speedup over
// REDO-LOG.
type Fig9Point struct {
	Kind    workload.Kind
	Latency int // cycles
	Speedup float64
}

// Fig9 sweeps the SSP cache access latency from 20 to 180 cycles across all
// seven microbenchmarks, reporting speedup over REDO-LOG (the paper's
// y-axis).
func Fig9(sc Scale) []Fig9Point {
	// REDO-LOG baseline is latency-independent; run it once per workload.
	redo := map[workload.Kind]float64{}
	for _, k := range workload.Micro() {
		redo[k] = workload.Run(sc.params(k, ssp.RedoLog, 1)).TPS
	}
	var out []Fig9Point
	for _, k := range workload.Micro() {
		for lat := 20; lat <= 180; lat += 40 {
			p := sc.params(k, ssp.SSP, 1)
			p.Machine.SSPCacheLatency = ssp.Cycles(lat)
			tps := workload.Run(p).TPS
			out = append(out, Fig9Point{Kind: k, Latency: lat, Speedup: tps / redo[k]})
		}
	}
	return out
}

// RenderFig9 formats the SSP-cache latency sweep.
func RenderFig9(points []Fig9Point) string {
	// Collect latencies in order.
	var lats []int
	seen := map[int]bool{}
	for _, pt := range points {
		if !seen[pt.Latency] {
			seen[pt.Latency] = true
			lats = append(lats, pt.Latency)
		}
	}
	out := "speedup over REDO-LOG vs SSP-cache latency (cycles)\n"
	out += fmt.Sprintf("%-12s", "Workload")
	for _, l := range lats {
		out += fmt.Sprintf(" %7d", l)
	}
	out += "\n"
	for _, k := range workload.Micro() {
		out += fmt.Sprintf("%-12s", k)
		for _, l := range lats {
			for _, pt := range points {
				if pt.Kind == k && pt.Latency == l {
					out += fmt.Sprintf(" %7.2f", pt.Speedup)
				}
			}
		}
		out += "\n"
	}
	return out
}

// ---------------------------------------------------------------------------
// Tables 4 and 5 — real workloads.

// Table45Row carries one real workload's speedups and write savings.
type Table45Row struct {
	Kind workload.Kind
	// SpeedupOver[b] = TPS(SSP)/TPS(b) - 1, in percent (Table 4).
	SpeedupOver map[ssp.Backend]float64
	// SavingOver[b] = 1 - writes(SSP)/writes(b), in percent (Table 5).
	SavingOver map[ssp.Backend]float64
}

// Table45 runs Memcached and Vacation with four clients.
func Table45(sc Scale) []Table45Row {
	var rows []Table45Row
	for _, k := range workload.Real() {
		row := runAll(sc, k, 4, nil)
		r := Table45Row{Kind: k, SpeedupOver: map[ssp.Backend]float64{}, SavingOver: map[ssp.Backend]float64{}}
		sspRes := row.Results[ssp.SSP]
		sspW := float64(sspRes.Stats.TotalWriteBytes())
		for _, b := range []ssp.Backend{ssp.UndoLog, ssp.RedoLog} {
			base := row.Results[b]
			r.SpeedupOver[b] = 100 * (sspRes.TPS/base.TPS - 1)
			r.SavingOver[b] = 100 * (1 - sspW/float64(base.Stats.TotalWriteBytes()))
		}
		rows = append(rows, r)
	}
	return rows
}

// RenderTable4 formats the performance-improvement table.
func RenderTable4(rows []Table45Row) string {
	out := "SSP performance improvement over (Table 4)\n"
	out += fmt.Sprintf("%-12s %10s %10s\n", "", "UNDO-LOG", "REDO-LOG")
	for _, r := range rows {
		out += fmt.Sprintf("%-12s %9.0f%% %9.0f%%\n", r.Kind, r.SpeedupOver[ssp.UndoLog], r.SpeedupOver[ssp.RedoLog])
	}
	return out
}

// RenderTable5 formats the write-saving table.
func RenderTable5(rows []Table45Row) string {
	out := "SSP write-traffic saving over (Table 5)\n"
	out += fmt.Sprintf("%-12s %10s %10s\n", "", "UNDO-LOG", "REDO-LOG")
	for _, r := range rows {
		out += fmt.Sprintf("%-12s %9.0f%% %9.0f%%\n", r.Kind, r.SavingOver[ssp.UndoLog], r.SavingOver[ssp.RedoLog])
	}
	return out
}
