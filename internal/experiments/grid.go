package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/ssp"
)

// This file is the scaling grid (beyond the paper) that five sweeps share.
// A grid runs one workload under a list of machine configurations, its
// rows, at a list of core counts, and holds every cell's committed
// throughput against its row's own 1-core run, so a speedup isolates
// concurrency from the configuration itself. The sweeps differ only in the
// row axis and in the detail line printed under the table for each cell:
//
//   - parallel: the backend; per-core throughput and commit-barrier share.
//   - channels: memory channels; per-channel bus utilisation. On one channel
//     every 64-byte transfer serialises on a single bus.
//   - journal: SSP metadata-journal shards; journal pressure. With one shard
//     every commit's record batch serialises on one journal bank.
//   - crossshard: the global-transaction percentage of the cross-shard mixes;
//     distributed-commit traffic. A global commit pays prepare records in
//     2-4 participant shards plus one coordinator end record.
//   - scale: the window W of the deterministic window scheduler; its host
//     cost. A core books shared hardware up to a window ahead of the
//     laggard's clock, so W moves the simulated speedup curve.

// gridRow is one machine configuration of a grid: its label and how it
// changes the sweep's run parameters.
type gridRow struct {
	label string
	tune  func(*workload.Params)
}

// GridCell is one (row, cores) cell of a grid.
type GridCell struct {
	Row      string                  // the row's label
	Cores    int                     // clients of the measured run, one per core
	Params   workload.Params         // the measured run's parameters
	Base     workload.ParallelResult // the row's 1-core run, shared by its cells
	Parallel workload.ParallelResult // the measured run under Machine.Run
}

// TPS is the cell's committed TPS.
func (c GridCell) TPS() float64 { return CommittedTPS(c.Parallel.Cycles, c.Parallel.Result) }

// BaseTPS is the committed TPS of the cell's row at one core.
func (c GridCell) BaseTPS() float64 { return CommittedTPS(c.Base.Cycles, c.Base.Result) }

// Speedup is TPS over BaseTPS (0 when the baseline committed nothing).
func (c GridCell) Speedup() float64 {
	b := c.BaseTPS()
	if b <= 0 {
		return 0
	}
	return c.TPS() / b
}

// Grid is one sweep's cells, row by row and within a row in core order.
type Grid struct {
	Kind   workload.Kind
	Axis   string // what the rows vary
	Cores  []int
	Cells  []GridCell
	detail func(GridCell) string
}

// runGrid runs kind on SSP, changed by each row's tune, at one core and at
// every count in coresList. The 1-core run goes through the serial driver,
// except for the cross-shard mixes, which only the parallel driver runs.
func runGrid(sc Scale, kind workload.Kind, axis string, rows []gridRow, coresList []int, detail func(GridCell) string) Grid {
	g := Grid{Kind: kind, Axis: axis, Cores: coresList, detail: detail}
	for _, row := range rows {
		params := func(cores int) workload.Params {
			p := sc.params(kind, ssp.SSP, cores)
			row.tune(&p)
			return p
		}
		var base workload.ParallelResult
		if kind == workload.MemcachedCross || kind == workload.VacationCross {
			base = workload.RunParallel(params(1))
		} else {
			base.Result = workload.Run(params(1))
		}
		for _, cores := range coresList {
			c := GridCell{Row: row.label, Cores: cores, Params: params(cores), Base: base}
			c.Parallel = workload.RunParallel(c.Params)
			g.Cells = append(g.Cells, c)
		}
	}
	return g
}

// RenderGrid formats a grid: one line per row with its 1-core committed
// TPS and every core count's committed TPS and speedup, then the sweep's
// detail line for each cell.
func RenderGrid(g Grid) string {
	if len(g.Cells) == 0 {
		return ""
	}
	header := []string{g.Axis, "1-core base cTPS"}
	for _, c := range g.Cores {
		header = append(header, fmt.Sprintf("%d-core cTPS (speedup)", c))
	}
	var body [][]string
	for i := 0; i < len(g.Cells); i += len(g.Cores) {
		row := g.Cells[i : i+len(g.Cores)]
		line := []string{row[0].Row, fmt.Sprintf("%.0f", row[0].BaseTPS())}
		for _, c := range row {
			line = append(line, fmt.Sprintf("%.0f (%.2fx)", c.TPS(), c.Speedup()))
		}
		body = append(body, line)
	}
	var b strings.Builder
	b.WriteString(stats.Table(header, body))
	b.WriteByte('\n')
	for _, c := range g.Cells {
		fmt.Fprintf(&b, "  %s %s x %dcore: %s\n", g.Axis, c.Row, c.Cores, g.detail(c))
	}
	return b.String()
}

// intRows makes one row per value, labelled with it.
func intRows(values []int, tune func(p *workload.Params, v int)) []gridRow {
	rows := make([]gridRow, len(values))
	for i, v := range values {
		rows[i] = gridRow{strconv.Itoa(v), func(p *workload.Params) { tune(p, v) }}
	}
	return rows
}

// ParallelScaling runs kind on every backend at `cores` cores.
func ParallelScaling(sc Scale, kind workload.Kind, cores int) Grid {
	var rows []gridRow
	for _, b := range ssp.Backends() {
		rows = append(rows, gridRow{b.String(), func(p *workload.Params) { p.Backend = b }})
	}
	return runGrid(sc, kind, "design", rows, []int{cores}, func(c GridCell) string {
		var b strings.Builder
		for _, cr := range c.Parallel.PerCore {
			wait := 0.0
			if cr.Cycles > 0 {
				wait = 100 * float64(cr.BarrierWait) / float64(cr.Cycles)
			}
			fmt.Fprintf(&b, "core%d %.0f cTPS %.1f%% barrier, ", cr.Core, cr.TPS, wait)
		}
		ws := c.Parallel.WindowSched
		fmt.Fprintf(&b, "W=%d %d windows %d grants %d stalls\n    journal: %s",
			ws.Window, ws.Windows, ws.Grants, ws.BarrierStalls, JournalPressureLine(c.Parallel.Result))
		return b.String()
	})
}

// ChannelSweep runs kind under backend b on every channel count.
func ChannelSweep(sc Scale, kind workload.Kind, b ssp.Backend, channelsList, coresList []int) Grid {
	rows := intRows(channelsList, func(p *workload.Params, ch int) {
		p.Backend = b
		p.Machine.Channels = ch
	})
	return runGrid(sc, kind, "channels", rows, coresList, func(c GridCell) string {
		line := "bus utilization"
		for i := 0; i < c.Params.Machine.Channels; i++ {
			line += fmt.Sprintf(" %4.1f%%", 100*busUtil(c.Parallel, i))
		}
		return line
	})
}

// busUtil is channel ch's bus occupancy over the measured window, clamped
// to 1 (the counters charge every transfer, including any a straggler core
// got past the occupancy wheel's horizon).
func busUtil(par workload.ParallelResult, ch int) float64 {
	if par.Cycles <= 0 {
		return 0
	}
	return min(1, float64(par.Stats.ChannelBusyCycles[ch])/float64(par.Cycles))
}

// JournalSweep runs kind on every journal shard count, on `channels`
// memory channels. At one core the shard count barely matters: a single
// core appends to one shard.
func JournalSweep(sc Scale, kind workload.Kind, channels int, shardsList, coresList []int) Grid {
	rows := intRows(shardsList, func(p *workload.Params, shards int) {
		p.Machine.Channels = channels
		p.Machine.JournalShards = shards
	})
	return runGrid(sc, kind, "shards", rows, coresList, func(c GridCell) string {
		return JournalPressureLine(c.Parallel.Result)
	})
}

// CrossShardSweep runs kind (MemcachedCross or VacationCross) at every
// global-transaction percentage, on `shards` journal shards and `channels`
// memory channels. One client has no peer shard to span, so every row's
// 1-core run is all-local.
func CrossShardSweep(sc Scale, kind workload.Kind, channels, shards int, fracs, coresList []int) Grid {
	rows := intRows(fracs, func(p *workload.Params, pct int) {
		p.CrossPct = pct
		p.Machine.Channels = channels
		p.Machine.JournalShards = shards
	})
	return runGrid(sc, kind, "cross%", rows, coresList, func(c GridCell) string {
		st := c.Parallel.Stats
		global := 0.0
		if st.Commits > 0 {
			global = 100 * float64(st.GlobalCommits) / float64(st.Commits)
		}
		return fmt.Sprintf("%d global commits (%.1f%% of commits), %d prepare records, barrier wait %.1f%% of core-cycles\n    journal: %s",
			st.GlobalCommits, global, st.PrepareRecords, 100*BarrierWaitShare(c.Parallel, c.Cores), JournalPressureLine(c.Parallel.Result))
	})
}

// ScaleWindows returns the swept window sizes in cycles.
func ScaleWindows() []int { return []int{1024, 4096, 16384} }

// ScaleSweep runs kind at every scheduler window, on 4 channels and 4
// journal shards so the shared hardware the scheduler arbitrates is
// contended. The detail line is the scheduler's cost: its host barrier-wait
// share (which picked the default W) and its windows, grants and stalls.
func ScaleSweep(sc Scale, kind workload.Kind, windows, coresList []int) Grid {
	rows := intRows(windows, func(p *workload.Params, w int) {
		p.Machine.Channels = 4
		p.Machine.JournalShards = 4
		p.Machine.TimeWindow = w
	})
	return runGrid(sc, kind, "window", rows, coresList, func(c GridCell) string {
		ws := c.Parallel.WindowSched
		return fmt.Sprintf("wall %.1fms, barrier-wait %.1f%% of host core-time, %d windows, %d grants, %d stalls\n    journal: %s",
			float64(c.Parallel.Wall.Microseconds())/1000, 100*ws.BarrierShare(c.Cores, c.Parallel.Wall),
			ws.Windows, ws.Grants, ws.BarrierStalls, JournalPressureLine(c.Parallel.Result))
	})
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

// JournalPressureLine summarises a run's SSP journal pressure in one line:
// per-shard records / ring fill / checkpoints, and the journal banks' busy
// cycles. Those are summed over every bank, so their ratio to the measured
// window is the mean number of journal banks busy at once.
func JournalPressureLine(res workload.Result) string {
	if len(res.Journal) == 0 {
		return "no journal (non-SSP backend)"
	}
	var b strings.Builder
	for _, p := range res.Journal {
		fmt.Fprintf(&b, "s%d %drec %4.1f%%fill %dckpt  ", p.Shard, p.Records, 100*p.FillFrac(), p.Checkpoints)
	}
	busy := res.Stats.NVRAMBankBusy[stats.CatMetaJournal]
	fmt.Fprintf(&b, "| journal bank busy %d cycles", busy)
	if res.Cycles > 0 {
		fmt.Fprintf(&b, ", %.3f journal banks busy on average", float64(busy)/float64(res.Cycles))
	}
	return b.String()
}

// SweepPowersOfTwo returns 1, 2, 4, ... up to and including max (plus max
// itself when it is not a power of two).
func SweepPowersOfTwo(max int) []int {
	if max < 1 {
		return []int{1}
	}
	var out []int
	for v := 1; v <= max; v *= 2 {
		out = append(out, v)
	}
	if out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}
