package main

import (
	"time"

	"repro/internal/crashsweep"
	"repro/ssp"
)

// crash-sweep: the trap sweep the repo's correctness rests on, timed. For
// each of 3 backends x CrashScripts generated scripts, a reference run counts
// the script's durable NVRAM writes; then the script re-runs once per write
// on a fresh 32 MB machine with power failing after that write, recovers in
// place and is checked all-or-nothing. One operation is one trap point; a
// violation is a failed operation. Built from crashsweep's exported pieces
// (MakeScript, Config, RunScript, Verify) so each step can be timed.

// crashScript is one (backend, script) cell of a sweep.
type crashScript struct {
	cfg    ssp.Config
	sc     crashsweep.Script
	writes int64 // durable NVRAM line writes of the full script, through the drain
	pages  int   // highest heap page the script touches
}

// scriptSeed spreads the run seed over the scripts a run generates.
func scriptSeed(seed uint64, i int) uint64 { return seed*1000003 + uint64(i) }

// maxPage mirrors Script's unexported helper: recovery leaves the heap pages
// to be mapped again before Verify can read them.
func maxPage(sc crashsweep.Script) int {
	max := 1
	for _, addrs := range sc.Txns {
		for _, va := range addrs {
			if p := int((va - ssp.HeapBase) / ssp.PageBytes); p > max {
				max = p
			}
		}
	}
	return max
}

// crashPlan is the script part of a sweep's set-up: CrashScripts scripts
// generated from the seed and, for every backend, a reference run of each to
// completion that counts the trap points it has.
func crashPlan(x *runCtx) (map[ssp.Backend][]crashScript, error) {
	plan := map[ssp.Backend][]crashScript{}
	for _, b := range ssp.Backends() {
		for i := 0; i < x.sz.CrashScripts; i++ {
			cs := crashScript{cfg: crashsweep.Config(b), sc: crashsweep.MakeScript(scriptSeed(x.seed, i), x.sz.CrashTxns)}
			cs.pages = maxPage(cs.sc)
			m, err := ssp.New(cs.cfg)
			if err != nil {
				return nil, err
			}
			m.ResetStats()
			crashsweep.RunScript(m, cs.sc)
			m.Drain()
			cs.writes = int64(m.Stats().NVRAMWriteLines)
			plan[b] = append(plan[b], cs)
		}
	}
	return plan, nil
}

// crashPopulation is the simulated side of crash-sweep: the script
// generator's transactions with no crash. The dozen transactions of one swept
// script are too few to give a steady rate or percentile (across seeds their
// p99 moved by 14%), so CrashSimScripts scripts from the same seed run back
// to back on one sweep-sized machine — txn i of a script stores i+1 to every
// address of its write set, as RunScript does.
type crashPopulation struct {
	txns    int
	seconds float64  // simulated time from the first Begin to the last Commit
	lat     []uint32 // per-transaction Begin..Commit simulated cycles
	stats   ssp.Stats
}

func runPopulation(x *runCtx, b ssp.Backend) (crashPopulation, error) {
	var p crashPopulation
	m, err := ssp.New(crashsweep.Config(b))
	if err != nil {
		return p, err
	}
	scripts := make([]crashsweep.Script, x.sz.CrashSimScripts)
	pages := 1
	for i := range scripts {
		scripts[i] = crashsweep.MakeScript(scriptSeed(x.seed, i), x.sz.CrashTxns)
		pages = max(pages, maxPage(scripts[i]))
	}
	m.Heap().EnsureMapped(nil, 1, pages)
	m.Drain()
	m.ResetStats()
	c := m.Core(0)
	start := c.Now()
	for _, sc := range scripts {
		for i, addrs := range sc.Txns {
			at := c.Now()
			c.Begin()
			for _, va := range addrs {
				c.Store64(va, uint64(i+1))
			}
			c.Commit()
			p.lat = append(p.lat, uint32(c.Now()-at))
		}
	}
	p.txns = len(p.lat)
	p.seconds = m.Seconds(c.Now() - start)
	m.Drain()
	p.stats = *m.Stats()
	return p, nil
}

// sweepTimes accumulates the four spans that make up one trap point.
type sweepTimes struct {
	New, Run, Recover, Verify time.Duration
	Points, Violations        int
	Replayed, RecoveryWrites  uint64
	// Slices is the rate, in trap points per second of measured() time, of
	// each run of slicePoints consecutive points in spreadOrder (some 30 ms
	// of it).
	Slices []float64
}

const slicePoints = 25

// measured is the part of a sweep that counts as its measured window. Machine
// construction is left out and reported as set-up: it is two thirds of a trap
// point's host time, all of it zeroing fresh memory, and its cost swings by
// a third with the allocator's state and the host's memory bandwidth while
// the rest repeats within a few percent. Kept together, no bound below 0.25
// would hold; apart, setup_s carries construction (where a lazy memsim backing
// or a Machine.Reset must show) and host_ops_per_s carries run + recover +
// verify.
func (t sweepTimes) measured() time.Duration { return t.Run + t.Recover + t.Verify }

// trapPoint is one power failure of a sweep: script cs, after its k-th
// durable write.
type trapPoint struct {
	cs *crashScript
	k  int64
}

// spreadOrder lists a sweep's trap points in the order it visits them: every
// point of every script once, but in steps of a fixed stride (a golden-ratio
// share of the list, made coprime to its length) instead of one after the
// other. Points are independent — each gets a fresh machine — so the order
// changes no outcome; it makes any run of consecutive points a like sample of
// the backends, the scripts and the trap positions, so a sweep's slices all
// do the same kind of work and can be read together.
func spreadOrder(plan map[ssp.Backend][]crashScript) []trapPoint {
	var points []trapPoint
	for _, b := range ssp.Backends() {
		for i := range plan[b] {
			cs := &plan[b][i]
			for k := int64(0); k <= cs.writes; k++ {
				points = append(points, trapPoint{cs, k})
			}
		}
	}
	n := len(points)
	stride := max(1, n*382/1000)
	for gcd(stride, n) != 1 {
		stride++
	}
	out := make([]trapPoint, n)
	for i := range out {
		out[i] = points[i*stride%n]
	}
	return out
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// sweep runs every trap point of every script. rec, when non-nil, receives a
// "trap point" root per point with the four spans as children.
func sweep(plan map[ssp.Backend][]crashScript, rec *recorder) (sweepTimes, error) {
	var t sweepTimes
	const class = "trap point"
	var sliceStart time.Duration // measured() when the current slice began
	for _, p := range spreadOrder(plan) {
		cs, k := p.cs, p.k
		root := rec.open("point", class, -1, 0)
		sp := rec.open("machine.new", class, root, 0)
		t0 := time.Now()
		m, err := ssp.New(cs.cfg)
		if err != nil {
			return t, err
		}
		t1 := time.Now()
		rec.close(sp, 0)
		sp = rec.open("crashsweep.run", class, root, 0)
		m.Mem().SetWriteTrap(k)
		committed, boundary := crashsweep.RunScript(m, cs.sc)
		m.Mem().SetWriteTrap(-1)
		t2 := time.Now()
		rec.close(sp, 0)
		sp = rec.open("machine.recover", class, root, 0)
		rerr := m.Recover()
		t3 := time.Now()
		rec.close(sp, 0)
		sp = rec.open("crashsweep.verify", class, root, 0)
		if rerr != nil {
			t.Violations++
		} else {
			m.Heap().EnsureMapped(nil, 1, cs.pages)
			if crashsweep.Verify(m, committed, boundary) != nil {
				t.Violations++
			}
			st := m.Stats()
			t.Replayed += st.ReplayedRecords
			t.RecoveryWrites += st.RecoveryNVWrites
		}
		t4 := time.Now()
		rec.close(sp, 0)
		rec.close(root, 0)
		t.New += t1.Sub(t0)
		t.Run += t2.Sub(t1)
		t.Recover += t3.Sub(t2)
		t.Verify += t4.Sub(t3)
		t.Points++
		if t.Points%slicePoints == 0 {
			t.Slices = append(t.Slices, slicePoints/(t.measured()-sliceStart).Seconds())
			sliceStart = t.measured()
		}
	}
	if len(t.Slices) == 0 { // a sweep shorter than one slice (the tests)
		t.Slices = []float64{float64(t.Points) / t.measured().Seconds()}
	}
	return t, nil
}

func crashBaseline(x *runCtx) (baselineResult, error) {
	var res baselineResult
	for _, b := range []ssp.Backend{ssp.UndoLog, ssp.RedoLog} {
		p, err := runPopulation(x, b)
		if err != nil {
			return res, err
		}
		res.add(b, float64(p.txns)/p.seconds, &p.stats)
	}
	return res, nil
}

func crashRep(x *runCtx) (repResult, error) {
	t0 := time.Now()
	plan, err := crashPlan(x)
	if err != nil {
		return repResult{}, err
	}
	setup := time.Since(t0)
	t, err := sweep(plan, nil)
	if err != nil {
		return repResult{}, err
	}
	p, err := runPopulation(x, ssp.SSP)
	if err != nil {
		return repResult{}, err
	}
	return repResult{
		Setup: setup + t.New, Window: t.measured(), Ops: t.Points, Failed: t.Violations,
		Slices: [][]float64{t.Slices},
		Sim:    simMetrics(p.txns, p.seconds, &p.stats, p.lat),
	}, nil
}

func crashTraced(x *runCtx) (tracedResult, error) {
	res := tracedResult{Layer: metricSet{}}
	plan, err := crashPlan(x)
	if err != nil {
		return res, err
	}
	plain, err := sweep(plan, nil)
	if err != nil {
		return res, err
	}
	collectGarbage()
	rec := newRecorder("crash-sweep", 5*plain.Points+5)
	meter := startAllocMeter()
	t0 := time.Now()
	t, err := sweep(plan, rec)
	if err != nil {
		return res, err
	}
	wall := time.Since(t0)
	res.Layer.merge(meter.stop(t.Points))
	res.Ops = t.Points
	res.Failed = t.Violations + plain.Violations
	n := float64(t.Points)
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 / n }
	res.Layer["machine.new_ms"] = ms(t.New)
	res.Layer["machine.restore_ms"] = ms(t.Recover)
	res.Layer["crashsweep.run_ms_per_point"] = ms(t.Run)
	res.Layer["crashsweep.verify_ms_per_point"] = ms(t.Verify)
	res.Layer["crashsweep.points"] = n
	res.Layer["core.replayed_records_per_crash"] = float64(t.Replayed) / n
	res.Layer["sim_recovery_nvwrites_per_crash"] = float64(t.RecoveryWrites) / n
	res.Layer["trace.overhead_pct"] = 100 * (float64(t.measured())/float64(plain.measured()) - 1)
	spanHost, _ := rec.rootTotals()
	res.Layer["trace.host_residual_pct"] = 100 * (1 - float64(spanHost)/float64(wall))
	x.logf("  %d trap points, %d violations; one point = new %.3f + run %.3f + recover %.3f + verify %.3f ms\n",
		t.Points, res.Failed, ms(t.New), ms(t.Run), ms(t.Recover), ms(t.Verify))
	x.logf("  host spans cover %.1f%% of the %.3fs sweep; trace.overhead_pct %.1f\n",
		100-res.Layer["trace.host_residual_pct"], wall.Seconds(), res.Layer["trace.overhead_pct"])

	// Counters of the transaction population (no crash), per transaction.
	p, err := runPopulation(x, ssp.SSP)
	if err != nil {
		return res, err
	}
	res.Layer.merge(counterMetrics(&p.stats, float64(p.stats.Commits)))
	res.Table = stackTable(rec.aggregate())
	if err := rec.write(x); err != nil {
		return res, err
	}
	return res, nil
}
