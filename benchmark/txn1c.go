package main

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/ssp"
	"repro/ssp/pds"
)

// This file drives tree-1c and sps-1c: one core in serial mode (outside
// Machine.Run) on the paper's Table 2 machine, one durable transaction per
// operation in the shape of workload.buildMicroKV / buildSPS:
//
//	Acquire; Begin; body; Commit; Release
//
// The driver keeps a volatile shadow of what it committed; each repetition
// ends with Crash -> ssp.Restore -> reopen the structure from root slot 0 ->
// compare against the shadow.

// txnBody is the structure-specific part of a 1-core workload.
type txnBody interface {
	// step runs one transaction body inside the open section and updates the
	// shadow.
	step(c *ssp.Core)
	// verify reopens the structure on the recovered machine and returns how
	// many shadow entries it checked and how many were wrong.
	verify(m *ssp.Machine) (checked, wrong int)
}

// instance is one built and prefilled machine, ready for its measured window.
type instance struct {
	cfg  ssp.Config
	m    *ssp.Machine
	c    *ssp.Core
	lock *ssp.Lock
	body txnBody
}

type treeBody struct {
	bt     *pds.BTree
	keys   engine.Dist
	vals   *engine.RNG
	shadow map[uint64]uint64
}

func (t *treeBody) step(c *ssp.Core) {
	k := t.keys.Next()
	if _, found := t.bt.Get(c, k); found {
		t.bt.Delete(c, k)
		delete(t.shadow, k)
	} else {
		v := t.vals.Uint64()
		t.bt.Insert(c, k, v)
		t.shadow[k] = v
	}
}

func (t *treeBody) verify(m *ssp.Machine) (checked, wrong int) {
	c := m.Core(0)
	bt := pds.OpenBTree(m.Heap(), m.Root(c, 0))
	for k := uint64(0); k < t.keys.N(); k++ {
		want, present := t.shadow[k]
		got, found := bt.Get(c, k)
		if found != present || (found && got != want) {
			wrong++
		}
		checked++
	}
	if bt.Len(c) != uint64(len(t.shadow)) {
		wrong++
	}
	return checked, wrong
}

// buildTree sets up tree-1c: a B+-tree over uniform keys, each key present
// with probability 1/2 so the steady-state search-then-insert-or-delete mix
// is balanced. The prefill also warms the caches before the window opens.
func buildTree(x *runCtx, b ssp.Backend) (*instance, error) {
	cfg := x.machineConfig(b, 1)
	m, err := ssp.New(cfg)
	if err != nil {
		return nil, err
	}
	c := m.Core(0)
	rng := engine.NewRNG(x.seed).Fork()

	c.Begin()
	bt := pds.CreateBTree(c, m.Heap())
	m.SetRoot(c, 0, bt.Head())
	c.Commit()

	body := &treeBody{bt: bt, shadow: make(map[uint64]uint64, x.sz.TreeKeys)}
	prng := rng.Fork()
	for k := uint64(0); k < x.sz.TreeKeys; k++ {
		if prng.Uint64()&1 == 0 {
			continue
		}
		v := prng.Uint64()
		c.Begin()
		bt.Insert(c, k, v)
		c.Commit()
		body.shadow[k] = v
	}
	body.keys = engine.NewUniform(x.sz.TreeKeys, rng)
	body.vals = rng.Fork()
	return &instance{cfg: cfg, m: m, c: c, lock: m.NewLock(), body: body}, nil
}

type spsBody struct {
	arr     *pds.Array
	rng     *engine.RNG
	shadow  []uint64
	touched []uint32
}

func (s *spsBody) step(c *ssp.Core) {
	i := s.rng.Intn(len(s.shadow))
	j := s.rng.Intn(len(s.shadow))
	s.arr.Swap(c, i, j)
	s.shadow[i], s.shadow[j] = s.shadow[j], s.shadow[i]
	s.touched = append(s.touched, uint32(i), uint32(j))
}

// verify checks every element a transaction touched plus a strided sample of
// the rest (reading all 2^21 through the simulated core would take longer
// than the measured window).
func (s *spsBody) verify(m *ssp.Machine) (checked, wrong int) {
	c := m.Core(0)
	arr := pds.OpenArray(m.Heap(), m.Root(c, 0))
	check := func(i int) {
		if arr.Get(c, i) != s.shadow[i] {
			wrong++
		}
		checked++
	}
	for _, i := range s.touched {
		check(int(i))
	}
	for i := 0; i < len(s.shadow); i += 509 {
		check(i)
	}
	if arr.Len(c) != len(s.shadow) {
		wrong++
	}
	return checked, wrong
}

// buildSPS sets up sps-1c: a persistent array of SPSElems words holding
// 0..n-1. The array is initialised a cache line per store (8 words) in
// page-sized transactions; initialising it a word at a time through
// Array.Set costs over a second of host time per machine and is not what
// this workload measures.
func buildSPS(x *runCtx, b ssp.Backend) (*instance, error) {
	cfg := x.machineConfig(b, 1)
	m, err := ssp.New(cfg)
	if err != nil {
		return nil, err
	}
	c := m.Core(0)
	n := x.sz.SPSElems

	c.Begin()
	arr := pds.CreateArray(c, m.Heap(), n)
	m.SetRoot(c, 0, arr.Head())
	c.Commit()

	data := c.Load64(arr.Head()) // pds.Array's persistent head: +0 is the data address
	const wordsPerLine = ssp.LineBytes / 8
	wordsPerPage := ssp.PageBytes / 8
	shadow := make([]uint64, n)
	var line [ssp.LineBytes]byte
	for base := 0; base < n; base += wordsPerPage {
		c.Begin()
		for w := base; w < base+wordsPerPage && w < n; w += wordsPerLine {
			for j := 0; j < wordsPerLine; j++ {
				v := uint64(w + j)
				shadow[w+j] = v
				for bi := 0; bi < 8; bi++ {
					line[j*8+bi] = byte(v >> (8 * bi))
				}
			}
			c.StoreBytes(data+uint64(w)*8, line[:])
		}
		c.Commit()
	}
	body := &spsBody{
		arr:     arr,
		rng:     engine.NewRNG(x.seed).Fork(),
		shadow:  shadow,
		touched: make([]uint32, 0, 2*max(x.sz.SPSTxns, x.sz.BaseTxns)),
	}
	return &instance{cfg: cfg, m: m, c: c, lock: m.NewLock(), body: body}, nil
}

// slicesPerWindow is how many equal pieces a measured window of a 1-core
// workload is timed in: 40 ms each on tree-1c, 35 ms on sps-1c.
const slicesPerWindow = 50

// window1c is what one measured window of a 1-core workload produced.
type window1c struct {
	Txns   int
	Host   time.Duration
	Slices []float64  // host txns per second of each of the window's slicesPerWindow slices
	Cycles ssp.Cycles // core clock advance up to the last acknowledgment
	Lat    []uint32   // per-txn simulated cycles, Acquire through Release
	Stats  ssp.Stats  // counters over the window, through the closing drain
}

// openWindow aligns the clock and zeroes the counters after set-up, the way
// workload.Run does.
func (in *instance) openWindow() ssp.Cycles {
	in.m.Drain()
	start := in.m.MaxClock()
	in.c.SetNow(start)
	in.m.ResetStats()
	return start
}

// run executes n transactions. With rec set, the driver records a span
// around each of its own calls — lock, begin, op (the structure's body) and
// commit under one request root. Release moves no clock, so the four children
// cover the root exactly.
func (in *instance) run(n int, class string, rec *recorder) window1c {
	w := window1c{Txns: n, Lat: make([]uint32, n), Slices: make([]float64, 0, slicesPerWindow+1)}
	c, lock, body := in.c, in.lock, in.body
	now := func() int64 { return int64(c.Now()) }
	start := in.openWindow()
	per := max(1, n/slicesPerWindow)
	t0 := time.Now()
	last := t0
	for i := 0; i < n; i++ {
		at := c.Now()
		root := rec.open("txn", class, -1, now())
		s := rec.open("machine.lock", class, root, now())
		c.Acquire(lock)
		rec.close(s, now())
		s = rec.open("machine.begin", class, root, now())
		c.Begin()
		rec.close(s, now())
		s = rec.open("pds.op", class, root, now())
		body.step(c)
		rec.close(s, now())
		s = rec.open("machine.commit", class, root, now())
		c.Commit()
		rec.close(s, now())
		c.Release(lock)
		rec.close(root, now())
		w.Lat[i] = uint32(c.Now() - at)
		if (i+1)%per == 0 {
			t := time.Now()
			w.Slices = append(w.Slices, float64(per)/t.Sub(last).Seconds())
			last = t
		}
	}
	w.Host = time.Since(t0)
	w.Cycles = c.Now() - start
	in.m.Drain()
	w.Stats = *in.m.Stats()
	return w
}

// crashAndVerify cuts power, restores a machine from the NVRAM image and
// checks the structure against the shadow. It returns the failed-operation
// count (a Restore error fails every transaction), the recovered machine's
// counters and the host time of Crash + Restore.
func (in *instance) crashAndVerify(txns int) (failed int, recovered ssp.Stats, restore time.Duration, err error) {
	t0 := time.Now()
	img := in.m.Crash()
	m2, rerr := ssp.Restore(in.cfg, img)
	restore = time.Since(t0)
	if rerr != nil {
		return txns, recovered, restore, nil
	}
	checked, wrong := in.body.verify(m2)
	if checked == 0 {
		return txns, recovered, restore, fmt.Errorf("verify checked nothing")
	}
	return wrong, *m2.Stats(), restore, nil
}

// simMetrics derives the simulated end-to-end metrics of a 1-core window.
func (w window1c) simMetrics(m *ssp.Machine) metricSet {
	return simMetrics(w.Txns, m.Seconds(w.Cycles), &w.Stats, w.Lat)
}

type builder func(x *runCtx, b ssp.Backend) (*instance, error)

// baseline1c runs BaseTxns transactions on UNDO-LOG and REDO-LOG.
func baseline1c(x *runCtx, build builder) (baselineResult, error) {
	var res baselineResult
	for _, b := range []ssp.Backend{ssp.UndoLog, ssp.RedoLog} {
		in, err := build(x, b)
		if err != nil {
			return res, err
		}
		w := in.run(x.sz.BaseTxns, "", nil)
		res.add(b, float64(w.Txns)/in.m.Seconds(w.Cycles), &w.Stats)
		collectGarbage()
	}
	return res, nil
}

// rep1c is one untraced repetition: build, measure, crash, verify.
func rep1c(x *runCtx, build builder, txns int) (repResult, error) {
	t0 := time.Now()
	in, err := build(x, ssp.SSP)
	if err != nil {
		return repResult{}, err
	}
	setup := time.Since(t0)
	w := in.run(txns, "", nil)
	failed, _, _, err := in.crashAndVerify(txns)
	if err != nil {
		return repResult{}, err
	}
	return repResult{Setup: setup, Window: w.Host, Ops: txns, Slices: [][]float64{w.Slices}, Failed: failed, Sim: w.simMetrics(in.m)}, nil
}

// traced1c is the traced run of a 1-core workload: an untraced window for
// the overhead figure, then the same window with spans, the two identities,
// and the counter-derived per-layer metrics.
func traced1c(x *runCtx, name, class string, build builder, txns int) (tracedResult, error) {
	res := tracedResult{Ops: txns, Layer: metricSet{}}

	// Untraced windows before and after the traced one: the first window of
	// a process runs slower than the rest, and the pair cancels that drift
	// out of the overhead figure.
	plainRun := func() (window1c, error) {
		in, err := build(x, ssp.SSP)
		if err != nil {
			return window1c{}, err
		}
		w := in.run(txns, "", nil)
		collectGarbage()
		return w, nil
	}
	untraced, err := plainRun()
	if err != nil {
		return res, err
	}

	in, err := build(x, ssp.SSP)
	if err != nil {
		return res, err
	}
	res.Layer["machine.new_ms"] = timeMachineNew(in.cfg)
	rec := newRecorder(name, 5*txns)
	meter := startAllocMeter()
	w := in.run(txns, class, rec)
	res.Layer.merge(meter.stop(txns))
	if diff := untraced.simMetrics(in.m).diff(w.simMetrics(in.m)); diff != "" {
		return res, fmt.Errorf("recording spans changed a simulated metric: %s", diff)
	}

	failed, recovered, restore, err := in.crashAndVerify(txns)
	if err != nil {
		return res, err
	}
	res.Failed = failed
	collectGarbage()
	after, err := plainRun()
	if err != nil {
		return res, err
	}
	plainHost := (untraced.Host + after.Host) / 2
	res.Layer["machine.restore_ms"] = float64(restore) / 1e6
	res.Layer["core.replayed_records_per_crash"] = float64(recovered.ReplayedRecords)

	// Identity 1: the four child spans' simulated cycles equal the core's
	// clock advance exactly. Identity 2: the root spans cover the window's
	// wall time up to a printed residual.
	aggs := rec.aggregate()
	spanHost, spanCycles := rec.rootTotals()
	var childCycles int64
	for _, a := range aggs {
		if !a.Root {
			childCycles += a.Cycles
		}
	}
	gap := int64(w.Cycles) - childCycles
	res.Layer["trace.cycle_gap"] = float64(gap)
	if gap != 0 || spanCycles != int64(w.Cycles) {
		res.Failed += txns
		x.logf("  IDENTITY VIOLATED: lock+begin+op+commit = %d cycles, roots = %d, core clock advanced %d\n", childCycles, spanCycles, w.Cycles)
	} else {
		x.logf("  identity: lock+begin+op+commit = %d simulated cycles = the core's clock advance, exactly\n", childCycles)
	}
	residual := 100 * (1 - float64(spanHost)/float64(w.Host))
	res.Layer["trace.host_residual_pct"] = residual
	x.logf("  host spans cover %.1f%% of the %.3fs window (residual %.1f%%: span bookkeeping and the driver's own loop)\n", 100-residual, w.Host.Seconds(), residual)
	overhead := 100 * (float64(w.Host)/float64(plainHost) - 1)
	res.Layer["trace.overhead_pct"] = overhead
	x.logf("  trace.overhead_pct %.1f (%.2f us/txn traced vs %.2f untraced, mean of a window before and one after)\n", overhead, usPerOp(w.Host, txns), usPerOp(plainHost, txns))
	res.TxnHostNS = float64(spanHost) / float64(txns)

	_, res.Layer["machine.lock_sim_cycles"] = perOp(aggs, class, "machine.lock")
	res.Layer["machine.begin_host_ns"], res.Layer["machine.begin_sim_cycles"] = perOp(aggs, class, "machine.begin")
	res.Layer["machine.commit_host_ns"], res.Layer["machine.commit_sim_cycles"] = perOp(aggs, class, "machine.commit")
	res.Layer["pds.op_host_ns"], res.Layer["pds.op_sim_cycles"] = perOp(aggs, class, "pds.op")
	res.Layer.merge(counterMetrics(&w.Stats, float64(w.Stats.Commits)))
	res.Table = stackTable(aggs)
	if err := rec.write(x); err != nil {
		return res, err
	}
	return res, nil
}

func usPerOp(d time.Duration, ops int) float64 { return float64(d) / 1e3 / float64(ops) }

func treeBaseline(x *runCtx) (baselineResult, error) { return baseline1c(x, buildTree) }
func treeRep(x *runCtx) (repResult, error)           { return rep1c(x, buildTree, x.sz.TreeTxns) }
func treeTraced(x *runCtx) (tracedResult, error) {
	return traced1c(x, "tree-1c", "tree txn", buildTree, x.sz.TreeTxns)
}

func spsBaseline(x *runCtx) (baselineResult, error) { return baseline1c(x, buildSPS) }
func spsRep(x *runCtx) (repResult, error)           { return rep1c(x, buildSPS, x.sz.SPSTxns) }
func spsTraced(x *runCtx) (tracedResult, error) {
	return traced1c(x, "sps-1c", "SPS txn", buildSPS, x.sz.SPSTxns)
}
