package experiments

import (
	"fmt"
	"strings"

	"repro/internal/workload"
	"repro/ssp"
)

// This file is the scale-out experiment (beyond the paper): committed
// throughput from 1 to 16 cores under the deterministic bounded-lag window
// scheduler, swept against the window size W. The scheduler serialises
// cores onto one execution slot in simulated-time order, making every
// repeat byte-identical. The sweep reports the simulated
// speedup curve (W moves it: a core books shared hardware up to a window
// ahead of the laggard's clock), the scheduler's host-side barrier-wait
// share (which picks the default W), and the per-shard journal pressure
// that explains where the speedup curve flattens.

// ScaleWindows returns the swept window sizes in cycles.
func ScaleWindows() []int { return []int{1024, 4096, 16384} }

// ScalePoint is one (window, cores) cell of the sweep for one workload.
type ScalePoint struct {
	Kind     workload.Kind
	Window   int // scheduler window in cycles
	Cores    int
	Serial   workload.Result         // 1-core serial baseline (shared by all cells)
	Parallel workload.ParallelResult // cores-goroutine run at this window
	Speedup  float64                 // parallel committed TPS / serial committed TPS
}

// ScaleSweep runs kind under SSP for every window × cores combination on a
// sharded machine (4 channels, per-core-capped journal shards) so the
// shared-hardware arbitration the scheduler makes deterministic is actually
// exercised.
func ScaleSweep(sc Scale, kind workload.Kind, windows, coresList []int) []ScalePoint {
	tune := func(p *workload.Params, window int) {
		p.Machine.Channels = 4
		p.Machine.JournalShards = 4
		p.Machine.TimeWindow = window
	}
	sp := sc.params(kind, ssp.SSP, 1)
	tune(&sp, 0)
	serial := workload.Run(sp)
	sTPS := CommittedTPS(serial.Cycles, serial)

	var points []ScalePoint
	for _, w := range windows {
		for _, cores := range coresList {
			pp := sc.params(kind, ssp.SSP, cores)
			tune(&pp, w)
			par := workload.RunParallel(pp)
			pt := ScalePoint{
				Kind:     kind,
				Window:   w,
				Cores:    cores,
				Serial:   serial,
				Parallel: par,
			}
			if sTPS > 0 {
				pt.Speedup = CommittedTPS(par.Cycles, par.Result) / sTPS
			}
			points = append(points, pt)
		}
	}
	return points
}

// RenderScale formats the sweep: the committed-TPS/speedup grid (window
// rows × core columns), the scheduler's barrier-wait share per cell (the
// host price of determinism, used to pick the default W), and the journal
// pressure at the largest core count.
func RenderScale(points []ScalePoint) string {
	if len(points) == 0 {
		return ""
	}
	rowKeys, coresList, cellOf := gridAxes(points, func(pt ScalePoint) (int, int) { return pt.Window, pt.Cores })
	var b strings.Builder
	b.WriteString(renderSweepGrid("window", rowKeys, coresList, func(row, cores int) (sweepCell, bool) {
		pt, ok := cellOf(row, cores)
		if !ok {
			return sweepCell{}, false
		}
		return sweepCell{
			Serial:  CommittedTPS(pt.Serial.Cycles, pt.Serial),
			TPS:     CommittedTPS(pt.Parallel.Cycles, pt.Parallel.Result),
			Speedup: pt.Speedup,
		}, true
	}))
	b.WriteString("\nscheduler cost (host side):\n")
	for _, w := range rowKeys {
		for _, c := range coresList {
			pt, ok := cellOf(w, c)
			if !ok {
				continue
			}
			ws := pt.Parallel.WindowSched
			fmt.Fprintf(&b, "  W=%-5d x %2dcore: wall %6.1fms, barrier-wait %5.1f%% of host core-time, %d windows, %d grants, %d stalls\n",
				w, c, float64(pt.Parallel.Wall.Microseconds())/1000,
				100*ws.BarrierShare(c, pt.Parallel.Wall), ws.Windows, ws.Grants, ws.BarrierStalls)
		}
	}
	b.WriteString("\njournal pressure (largest core count):\n")
	maxCores := coresList[len(coresList)-1]
	for _, w := range rowKeys {
		pt, ok := cellOf(w, maxCores)
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "  W=%-5d x %2dcore: %s\n", w, maxCores, JournalPressureLine(pt.Parallel.Result))
	}
	return b.String()
}
