package main

import (
	"time"

	"repro/internal/stats"
	"repro/internal/workload"
	"repro/ssp"
)

// serve-sim-4c: workload.RunServe on 4 cores under the deterministic window
// scheduler. One closed-loop capacity probe, then open loop in SIMULATED
// time (independent users: arrivals are scheduled by the core clocks, not by
// completions) with latency measured from scheduled arrival to ack, so a
// backlog shows as latency. The window scheduler makes every number here a
// pure function of the seed.

const (
	serveCores      = 4
	serveHeadline   = 6e6    // offered ops per simulated second of the reported p50/p99
	serveSLOCycles  = 32768  // p99 limit for sim_slo_rate
	serveEpoch      = 100000 // DurabilityEpoch of the relaxed run, cycles
	serveMinAckedOf = 0.99   // acked/offered below this is a growing backlog
)

// serveLadder is the fixed open-loop rate ladder, synchronous acks.
var serveLadder = []float64{4e6, 6e6, 7e6, 8e6}

func serveParams(x *runCtx, b ssp.Backend, offered float64, relaxed bool) workload.ServeParams {
	p := workload.ServeParams{
		Backend: b, Clients: serveCores,
		Ops: x.sz.ServeOps, Items: x.sz.ServeItems,
		Skew: 0.99, ReadPct: 50, DelPct: 5,
		OfferedTPS: offered, Relaxed: relaxed, Seed: x.seed,
		Machine: ssp.Config{Channels: 4, JournalShards: 1, TimeWindow: 4096, NVRAMMB: x.sz.NVRAMMB},
	}
	if relaxed {
		p.Machine.DurabilityEpoch = serveEpoch
	}
	return p
}

// serveCall is one RunServe call with the host time outside its measured
// Run window (machine build and prefill) split off as set-up.
type serveCall struct {
	workload.ParallelResult
	Setup time.Duration
}

func runServe(p workload.ServeParams) serveCall {
	t0 := time.Now()
	r := workload.RunServe(p)
	return serveCall{ParallelResult: r, Setup: time.Since(t0) - r.Wall}
}

// histPercentile is the p-th percentile of h with linear interpolation
// inside the bucket that holds the rank. Histogram.Percentile reports the
// bucket's upper bound, which moves in 12.5% steps: across seeds the tail
// either sits still or jumps a whole bucket. Interpolating gives a value that
// moves smoothly with the distribution and is just as deterministic.
func histPercentile(h *stats.Histogram, p float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := p / 100 * float64(h.Count)
	var seen float64
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if seen+float64(n) >= rank {
			// Bucket layout of stats.Histogram: 16 unit buckets, then 8
			// geometric sub-buckets per octave.
			lo, width := float64(i), 1.0
			if i >= 16 {
				e := uint((i-16)/8 + 4)
				lo = float64(uint64(8+(i-16)%8) << (e - 3))
				width = float64(uint64(1) << (e - 3))
			}
			v := lo + width*(rank-seen)/float64(n)
			if max := float64(h.MaxSeen); v > max {
				v = max
			}
			return v
		}
		seen += float64(n)
	}
	return float64(h.MaxSeen)
}

func serveSimBaseline(x *runCtx) (baselineResult, error) {
	var res baselineResult
	for _, b := range []ssp.Backend{ssp.UndoLog, ssp.RedoLog} {
		r := workload.RunServe(serveParams(x, b, 0, false))
		res.add(b, r.CommittedTPS, &r.Stats)
		collectGarbage()
	}
	return res, nil
}

// serveSimRep is one untraced repetition: the closed-loop probe and the
// headline open-loop run. (The rest of the ladder and the relaxed run feed
// only metrics reported by the traced run, so they run there.)
func serveSimRep(x *runCtx) (repResult, error) {
	probe := runServe(serveParams(x, ssp.SSP, 0, false))
	collectGarbage()
	head := runServe(serveParams(x, ssp.SSP, serveHeadline, false))
	return repResult{
		Setup:  (probe.Setup + head.Setup) / 2,
		Window: probe.Wall + head.Wall,
		Ops:    2 * x.sz.ServeOps,
		// RunServe cannot be timed from outside in less than a call, so a
		// slice is a whole call, and the two calls differ in kind.
		Slices: [][]float64{{float64(x.sz.ServeOps) / probe.Wall.Seconds()}, {float64(x.sz.ServeOps) / head.Wall.Seconds()}},
		Sim: metricSet{
			"sim_ctps":                probe.CommittedTPS,
			"sim_nvram_bytes_per_txn": float64(probe.Stats.TotalWriteBytes()) / float64(probe.Stats.Commits),
			"sim_ack_p50_cycles":      histPercentile(head.AckHist, 50),
			"sim_ack_p99_cycles":      histPercentile(head.AckHist, 99),
		},
	}, nil
}

// serveSimTraced runs the whole ladder once for the rate-dependent metrics
// and the counters, then two traced kv-twin passes (sync and relaxed) for
// the spans RunServe cannot give.
func serveSimTraced(x *runCtx) (tracedResult, error) {
	res := tracedResult{Layer: metricSet{}}
	x.logf("  ladder: %d ops per run, open loop in simulated time, %d cores, sync acks\n", x.sz.ServeOps, serveCores)
	x.logf("  %-10s %12s %12s %12s %12s %8s\n", "offered/s", "acked/s", "p50 cyc", "p99 cyc", "p99.9 cyc", "SLO")
	var head serveCall
	for _, rate := range serveLadder {
		r := runServe(serveParams(x, ssp.SSP, rate, false))
		collectGarbage()
		p99 := histPercentile(r.AckHist, 99)
		ok := p99 <= serveSLOCycles && r.CommittedTPS >= serveMinAckedOf*rate
		if ok {
			res.Layer["sim_slo_rate"] = rate
		}
		if rate == serveHeadline {
			head = r
		}
		x.logf("  %-10.0f %12.0f %12.0f %12.0f %12.0f %8v\n", rate, r.CommittedTPS,
			histPercentile(r.AckHist, 50), p99, histPercentile(r.AckHist, 99.9), ok)
		res.Ops += x.sz.ServeOps
	}
	relaxed := runServe(serveParams(x, ssp.SSP, serveHeadline, true))
	collectGarbage()
	res.Ops += x.sz.ServeOps
	res.Layer["sim_ack_p99_cycles_relaxed"] = histPercentile(relaxed.AckHist, 99)
	x.logf("  %-10.0f %12.0f %12.0f %12.0f %12.0f   relaxed, epoch %d cycles (n=%d per row)\n", serveHeadline, relaxed.CommittedTPS,
		histPercentile(relaxed.AckHist, 50), res.Layer["sim_ack_p99_cycles_relaxed"], histPercentile(relaxed.AckHist, 99.9), serveEpoch, relaxed.AckHist.Count)

	// Counters of the headline run, per committed transaction; the harden
	// lag belongs to the relaxed run.
	res.Layer.merge(counterMetrics(&head.Stats, float64(head.Stats.Commits)))
	res.Layer["core.harden_lag_cycles_mean"] = counterMetrics(&relaxed.Stats, 1)["core.harden_lag_cycles_mean"]
	res.Layer["machine.win_barrier_share"] = head.WindowSched.BarrierShare(serveCores, head.Wall)
	res.Layer["machine.win_grants_per_op"] = float64(head.WindowSched.Grants) / float64(x.sz.ServeOps)
	machineCfg := serveParams(x, ssp.SSP, 0, false).Defaults().Machine
	res.Layer["machine.new_ms"] = timeMachineNew(machineCfg)

	// Twin passes: the same mix over 4 shards, serial, with spans.
	twinOps := x.sz.ServeOps / 4
	rec := newRecorder("serve-sim-4c", 8*twinOps)
	spec := twinSpec{
		cfg:   machineCfg,
		items: x.sz.ServeItems,
		// RunServe gives each core its own 4096-key space; the twin routes
		// one 4x-larger space by key mod cores, the server's way.
		stream:  serveStream(x, uint64(serveCores*x.sz.ServeItems)),
		streams: serveCores, warm: serveCores * x.sz.ServeItems, ops: twinOps, fullValue: true,
	}
	spec.cfg.TimeWindow = 0 // serial pass: no scheduler
	syncCfg := spec.cfg
	plain, err := runTwin(spec, nil)
	if err != nil {
		return res, err
	}
	meter := startAllocMeter()
	sync, err := runTwin(spec, rec)
	if err != nil {
		return res, err
	}
	res.Layer.merge(meter.stop(twinOps))
	spanHost, _ := rec.rootTotals()
	res.Layer["trace.host_residual_pct"] = 100 * (1 - float64(spanHost)/float64(sync.Host))
	after, err := runTwin(spec, nil)
	if err != nil {
		return res, err
	}
	plainHost := (plain.Host + after.Host) / 2
	res.Layer["trace.overhead_pct"] = 100 * (float64(sync.Host)/float64(plainHost) - 1)
	x.logf("  twin: %d ops per pass; host spans cover %.1f%% of the traced window; trace.overhead_pct %.1f (%.2f us/op traced vs %.2f untraced, mean of a pass before and one after)\n",
		twinOps, 100-res.Layer["trace.host_residual_pct"], res.Layer["trace.overhead_pct"], usPerOp(sync.Host, twinOps), usPerOp(plainHost, twinOps))
	spec.relaxed = true
	spec.cfg.DurabilityEpoch = serveEpoch
	if _, err := runTwin(spec, rec); err != nil {
		return res, err
	}

	t0 := time.Now()
	img := sync.Machine.Crash()
	_, rerr := ssp.Restore(syncCfg, img)
	res.Layer["machine.restore_ms"] = float64(time.Since(t0)) / 1e6
	if rerr != nil {
		res.Failed += twinOps
	}
	res.Failed += plain.Wrong

	aggs := rec.aggregate()
	twinSpanMetrics(aggs, res.Layer)
	res.Table = stackTable(aggs)
	if err := rec.write(x); err != nil {
		return res, err
	}
	return res, nil
}
