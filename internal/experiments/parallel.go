package experiments

import (
	"fmt"
	"strings"

	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/ssp"
)

// ParallelRow compares one backend's serial single-core run against the
// concurrent goroutine-per-core run on the same workload: the scaling the
// sharded multi-core engine delivers, in committed transactions per
// simulated second, plus the host wall-clock of the measured window.
type ParallelRow struct {
	Backend  ssp.Backend
	Kind     workload.Kind
	Serial1  workload.Result         // 1 client, serial driver
	Parallel workload.ParallelResult // N clients, one goroutine per core
}

// CommittedTPS converts a result into committed durable transactions per
// simulated second (GETs and other read-only operations excluded). The
// runs use the default core frequency.
func CommittedTPS(cycles ssp.Cycles, res workload.Result) float64 {
	if cycles <= 0 {
		return 0
	}
	secs := float64(cycles) / (memsim.DefaultConfig().FreqGHz * 1e9)
	return float64(res.Stats.Commits) / secs
}

// ParallelScaling runs the workload on every backend: once serially on one
// core (the baseline the acceptance bar is measured against) and once
// concurrently on `cores` goroutine-backed cores.
func ParallelScaling(sc Scale, kind workload.Kind, cores int) []ParallelRow {
	var rows []ParallelRow
	for _, b := range ssp.Backends() {
		serial := workload.Run(sc.params(kind, b, 1))
		par := workload.RunParallel(sc.params(kind, b, cores))
		rows = append(rows, ParallelRow{Backend: b, Kind: kind, Serial1: serial, Parallel: par})
	}
	return rows
}

// RenderParallel renders the scaling comparison plus the per-core
// breakdown of each parallel run.
func RenderParallel(rows []ParallelRow) string {
	if len(rows) == 0 {
		return ""
	}
	var b strings.Builder
	cores := rows[0].Parallel.Clients
	header := []string{"workload", "design", "serial-1 cTPS", fmt.Sprintf("parallel-%d cTPS", cores), "speedup", "wall"}
	var tab [][]string
	for _, r := range rows {
		s1 := CommittedTPS(r.Serial1.Cycles, r.Serial1)
		pn := CommittedTPS(r.Parallel.Cycles, r.Parallel.Result)
		speed := 0.0
		if s1 > 0 {
			speed = pn / s1
		}
		tab = append(tab, []string{
			r.Kind.String(), r.Backend.String(),
			fmt.Sprintf("%.0f", s1), fmt.Sprintf("%.0f", pn),
			fmt.Sprintf("%.2fx", speed),
			fmt.Sprintf("%.1fms", float64(r.Parallel.Wall.Microseconds())/1000),
		})
	}
	b.WriteString(stats.Table(header, tab))
	b.WriteString("\nper-core committed throughput (parallel runs):\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-9s", r.Backend.String())
		for _, cr := range r.Parallel.PerCore {
			fmt.Fprintf(&b, "  core%d %6.0f", cr.Core, cr.TPS)
		}
		b.WriteByte('\n')
	}
	b.WriteString("\nper-core commit-barrier wait (share of the core's window spent on data-flush fences):\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-9s", r.Backend.String())
		for _, cr := range r.Parallel.PerCore {
			pct := 0.0
			if cr.Cycles > 0 {
				pct = 100 * float64(cr.BarrierWait) / float64(cr.Cycles)
			}
			fmt.Fprintf(&b, "  core%d %5.1f%%", cr.Core, pct)
		}
		b.WriteByte('\n')
	}
	for _, r := range rows {
		if len(r.Parallel.Journal) == 0 {
			continue
		}
		fmt.Fprintf(&b, "\n%s metadata-journal pressure (parallel window):\n  %s\n",
			r.Backend.String(), JournalPressureLine(r.Parallel.Result))
	}
	if rows[0].Parallel.TimeWindow == 0 {
		b.WriteString("\nnote: per-core timing and occupancy above are host-schedule dependent in\n" +
			"free-running mode; set Config.TimeWindow > 0 (e.g. 4096) for byte-identical repeats.\n")
	} else {
		ws := rows[0].Parallel.WindowSched
		fmt.Fprintf(&b, "\ndeterministic window scheduler: W=%d cycles, %d windows, %d grants, %d barrier stalls\n",
			ws.Window, ws.Windows, ws.Grants, ws.BarrierStalls)
	}
	return b.String()
}
