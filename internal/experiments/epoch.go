package experiments

import (
	"fmt"
	"strings"

	"repro/internal/workload"
	"repro/ssp"
)

// This file is the relaxed-durability epoch experiment (beyond the paper):
// it sweeps the epoch length (ssp.Config.DurabilityEpoch) against the core
// count on the single-journal-shard real-workload mixes. Epoch 0 is the paper's
// synchronous model (every commit waits for its journal flush); each longer
// epoch amortises more commits per seal-and-flush, shrinking the
// commit-barrier share of machine time and opening a committed-vs-durable
// throughput spread (acknowledged TPS over the ack window vs durable TPS
// through the closing drain). The price is bounded staleness, measured here
// as the mean harden lag (cycles from an epoch's first relaxed commit to
// its seal's durability, Stats.EpochHardenLag / Stats.HardenedEpochs).

// EpochPoint is one (epoch, cores) cell of a mix's sweep.
type EpochPoint struct {
	Kind     workload.Kind
	Epoch    int // DurabilityEpoch in cycles; 0 = synchronous
	Cores    int
	Parallel workload.ParallelResult
	BaseTPS  float64 // committed TPS of the same-core epoch-0 run
}

// EpochMix names one workload mix of the sweep with its machine shape. The
// defaults use one journal shard, so every core contends on the ring the
// epoch engine batches.
type EpochMix struct {
	Kind     workload.Kind
	Shards   int
	Channels int
}

// EpochMixes returns the default mixes (see the file comment).
func EpochMixes() []EpochMix {
	return []EpochMix{
		{Kind: workload.Memcached, Shards: 1, Channels: 4},
		{Kind: workload.Vacation, Shards: 1, Channels: 4},
	}
}

// EpochLengths returns the default epoch sweep: synchronous, then roughly
// 2, 10 and 50 transactions per epoch at the simulator's ~10k cycles per
// real-workload transaction.
func EpochLengths() []int { return []int{0, 20000, 100000, 500000} }

// EpochSweep runs one mix under SSP for every epoch length × core count.
// Epoch 0 runs synchronously (Params.Relaxed off) and anchors BaseTPS.
func EpochSweep(sc Scale, mix EpochMix, epochs, coresList []int) []EpochPoint {
	base := map[int]float64{} // cores -> epoch-0 committed TPS
	var points []EpochPoint
	for _, ep := range epochs {
		for _, cores := range coresList {
			p := sc.params(mix.Kind, ssp.SSP, cores)
			p.Machine.Channels = mix.Channels
			p.Machine.JournalShards = mix.Shards
			p.Machine.DurabilityEpoch = ep
			p.Relaxed = ep > 0
			par := workload.RunParallel(p)
			if ep == 0 {
				base[cores] = par.CommittedTPS
			}
			points = append(points, EpochPoint{
				Kind:     mix.Kind,
				Epoch:    ep,
				Cores:    cores,
				Parallel: par,
				BaseTPS:  base[cores],
			})
		}
	}
	return points
}

// BarrierWaitShare returns CommitBarrierWait as a fraction of the run's
// total core-cycles (window × cores) — the share of the machine's time
// spent blocked on commit-critical persistence fences.
func BarrierWaitShare(res workload.ParallelResult, cores int) float64 {
	if res.Cycles <= 0 || cores <= 0 {
		return 0
	}
	return float64(res.Stats.CommitBarrierWait) / (float64(res.Cycles) * float64(cores))
}

// MeanHardenLag returns the mean cycles from an epoch's first relaxed
// commit to its seal's durability (0 when the run hardened no open epoch).
func MeanHardenLag(st ssp.Stats) float64 {
	if st.HardenedEpochs == 0 {
		return 0
	}
	return float64(st.EpochHardenLag) / float64(st.HardenedEpochs)
}

// RenderEpoch formats one mix's sweep: a row per epoch length and core
// count with acknowledged (committed) and durable TPS, the change against
// the synchronous run at the same core count, the commit-barrier share of
// machine time, and the epoch engine's own accounting (seals, hardened
// epochs, mean harden lag).
func RenderEpoch(points []EpochPoint) string {
	if len(points) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-6s %12s %12s %8s %9s %8s %10s %10s\n",
		"epoch", "cores", "ackTPS", "durTPS", "vs sync", "barrier", "seals", "hardened", "lag(cyc)")
	for _, pt := range points {
		st := pt.Parallel.Stats
		delta := "-"
		if pt.Epoch > 0 && pt.BaseTPS > 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(pt.Parallel.CommittedTPS/pt.BaseTPS-1))
		}
		epoch := "sync"
		if pt.Epoch > 0 {
			epoch = fmt.Sprintf("%d", pt.Epoch)
		}
		fmt.Fprintf(&b, "%-10s %-6d %12.0f %12.0f %8s %8.1f%% %8d %10d %10.0f\n",
			epoch, pt.Cores, pt.Parallel.CommittedTPS, pt.Parallel.TPS, delta,
			100*BarrierWaitShare(pt.Parallel, pt.Cores),
			st.EpochSeals, st.HardenedEpochs, MeanHardenLag(st))
	}
	return b.String()
}
