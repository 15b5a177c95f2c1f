package main

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/ssp"
)

// sizes fixes how much work one repetition of each workload does. The
// counts are constants, not functions of the time budget: a repetition's
// inputs depend on the seed alone, so its simulated metrics repeat bit for
// bit, and -seconds only decides how many repetitions run.
type sizes struct {
	NVRAMMB int // machine size of the tree/sps/serve workloads (Table 2 scale)

	TreeKeys uint64
	TreeTxns int // measured SSP txns per repetition
	SPSElems int
	SPSTxns  int
	BaseTxns int // UNDO-LOG / REDO-LOG txns for the ratios (tree and sps)

	ServeOps   int // operations per RunServe call (probe, each ladder rung, relaxed)
	ServeItems int

	TCPOps  int // measured requests per repetition, across both connections
	TCPKeys uint64
	TCPWarm int

	CrashScripts    int // scripts swept per repetition, on each backend
	CrashTxns       int // transactions per script
	CrashSimScripts int // scripts in the no-crash population the simulated metrics come from
}

func fullSizes() sizes {
	return sizes{
		NVRAMMB:  192,
		TreeKeys: 16384, TreeTxns: 100000,
		SPSElems: 1 << 21, SPSTxns: 25000,
		BaseTxns: 30000,
		ServeOps: 100000, ServeItems: 4096,
		TCPOps: 100000, TCPKeys: 8192, TCPWarm: 8192,
		CrashScripts: 2, CrashTxns: 12, CrashSimScripts: 256,
	}
}

// tracedSizes is the traced run's length: a quarter of the operations is
// enough, the per-operation ratios do not depend on length. ServeOps stays:
// the rate ladder's percentiles are simulated results, not spans, and the
// span-recording twin passes take a quarter of it themselves.
func (s sizes) tracedSizes() sizes {
	s.TreeTxns /= 4
	s.SPSTxns /= 4
	s.BaseTxns /= 4
	s.TCPOps /= 4
	return s
}

// runCtx is what a driver needs to build its inputs.
type runCtx struct {
	seed   uint64
	sz     sizes
	outDir string    // where trace files go
	log    io.Writer // human-readable progress
}

func (x *runCtx) logf(format string, args ...any) { fmt.Fprintf(x.log, format, args...) }

// machineConfig is the paper's Table 2 machine at the workloads' memory size
// (the shape workload.Params.Defaults gives the paper experiments).
func (x *runCtx) machineConfig(b ssp.Backend, cores int) ssp.Config {
	return ssp.Config{Backend: b, Cores: cores, NVRAMMB: x.sz.NVRAMMB, DRAMMB: 4, MaxHeapPages: 36 << 10}
}

// repResult is one untraced repetition: set-up, the measured window, and the
// correctness check.
type repResult struct {
	Setup  time.Duration
	Window time.Duration
	Ops    int // operations in the measured window (txns, requests or trap points)
	Failed int // operations whose outcome was wrong
	// Slices is the host rate, in operations per second, of each of the
	// equal pieces of work the measured window was timed in, grouped by the
	// work they do: Slices[k] holds the window's slices of kind k. The slices
	// of a txn loop, a request stream or a sweep in spread order all do
	// statistically the same work and are one kind; the two RunServe calls
	// of serve-sim-4c are a kind each, and their other readings come from the
	// other repetitions, which do exactly the same work.
	Slices [][]float64
	Sim    metricSet
}

// fastShare is where host_ops_per_s is read off the readings of one kind of
// slice: the rate the fastest tenth of them reached. The sandbox is a few
// cores of a shared host whose neighbours slow a run down for seconds at a
// time (by a third or more, in phases that take up anything from none to all
// of a ten-second run) and never speed it up, so the slow readings of a piece
// of work measure the neighbours and the fast ones the program. A change to
// the program moves them all.
const fastShare = 0.9

// quantile is the q-th quantile of v by linear interpolation between order
// statistics.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// fastRate is the operations per host second of a window in which every
// kind of slice ran at the fastShare quantile of its readings. byKind[k] holds
// the readings of kind k from every repetition, so its length is in
// proportion to the kind's share of a window's operations, and the kinds'
// times add up.
func fastRate(byKind [][]float64) float64 {
	var slices, seconds float64 // seconds: per operation, times the operations of a slice
	for _, readings := range byKind {
		r := quantile(readings, fastShare)
		if r == 0 {
			return 0
		}
		slices += float64(len(readings))
		seconds += float64(len(readings)) / r
	}
	if seconds == 0 {
		return 0
	}
	return slices / seconds
}

// baselineResult is the once-per-invocation UNDO-LOG / REDO-LOG runs the
// ssp_over_* ratios divide by. Deterministic, so never repeated.
type baselineResult struct {
	UndoTPS, RedoTPS float64
	UndoBytesPerTxn  float64
	Layer            metricSet // logging.* per-layer metrics
	// Sim and Failed are set by a workload whose simulated metrics come
	// from a deterministic side run instead of its repetitions (serve-tcp-2c).
	Sim    metricSet
	Failed int
}

// add records one logging backend's window.
func (r *baselineResult) add(b ssp.Backend, tps float64, st *ssp.Stats) {
	if b == ssp.UndoLog {
		r.UndoTPS = tps
		r.UndoBytesPerTxn = float64(st.TotalWriteBytes()) / float64(st.Commits)
	} else {
		r.RedoTPS = tps
	}
	if r.Layer == nil {
		r.Layer = metricSet{}
	}
	r.Layer.merge(loggingMetrics(b, st))
}

// tracedResult is the traced run: per-layer metrics plus the stack table.
type tracedResult struct {
	Ops, Failed int
	Layer       metricSet
	Table       string
	// TxnHostNS is the measured host time of one transaction (its root
	// span), set where the unit-cost estimate is meaningful: tree-1c, sps-1c.
	TxnHostNS float64
}

// driver is one workload's implementation.
type driver struct {
	baseline func(x *runCtx) (baselineResult, error)
	rep      func(x *runCtx) (repResult, error)
	traced   func(x *runCtx) (tracedResult, error)
}

var drivers = map[string]driver{
	"tree-1c":      {baseline: treeBaseline, rep: treeRep, traced: treeTraced},
	"sps-1c":       {baseline: spsBaseline, rep: spsRep, traced: spsTraced},
	"serve-sim-4c": {baseline: serveSimBaseline, rep: serveSimRep, traced: serveSimTraced},
	"serve-tcp-2c": {baseline: serveTCPBaseline, rep: serveTCPRep, traced: serveTCPTraced},
	"crash-sweep":  {baseline: crashBaseline, rep: crashRep, traced: crashTraced},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadResult is everything one invocation on one workload measured.
type workloadResult struct {
	Workload  string                 `json:"workload"`
	Trace     int                    `json:"trace"`
	Seed      uint64                 `json:"seed"`
	Reps      int                    `json:"reps"`
	OpsPerRep int                    `json:"ops_per_rep"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Correct   bool                   `json:"correct"`
	Metrics   map[string]metricValue `json:"metrics"`
	// RepValues keeps each repetition's reading of the host metrics, so
	// -compare can tell a regression from spread wider than the bound.
	RepValues map[string][]float64 `json:"rep_values,omitempty"`
}

// minReps is the fewest repetitions an untraced run makes: two are needed to
// check that the simulated metrics repeat.
const minReps = 2

// runUntraced measures the end-to-end metrics with span recording off:
// baselines once, then repetitions for as long as another one still ends
// within seconds of the start of the run (or exactly reps of them when
// reps > 0). setup_s is the median over the repetitions, host_ops_per_s the
// fastRate of all their slices together; simulated metrics must be identical
// in all of them.
func runUntraced(name string, x *runCtx, seconds float64, reps int) (workloadResult, error) {
	d := drivers[name]
	res := workloadResult{Workload: name, Seed: x.seed, RepValues: map[string][]float64{}}
	began := time.Now()

	base, err := d.baseline(x)
	if err != nil {
		return res, fmt.Errorf("%s baseline: %w", name, err)
	}
	collectGarbage()

	res.Failed = base.Failed
	var first metricSet
	var byKind [][]float64
	var longest time.Duration
	for {
		t0 := time.Now()
		r, err := d.rep(x)
		if err != nil {
			return res, fmt.Errorf("%s repetition %d: %w", name, res.Reps+1, err)
		}
		collectGarbage()
		longest = max(longest, time.Since(t0))
		if res.Reps == 0 {
			first = r.Sim
			res.OpsPerRep = r.Ops
			byKind = make([][]float64, len(r.Slices))
		} else if diff := first.diff(r.Sim); diff != "" {
			return res, fmt.Errorf("%s: simulated metric %s differs between repetitions of one seed — the simulator is not deterministic here", name, diff)
		}
		res.Reps++
		res.Attempted += r.Ops
		res.Failed += r.Failed
		for k, rates := range r.Slices {
			byKind[k] = append(byKind[k], rates...)
		}
		res.RepValues["setup_s"] = append(res.RepValues["setup_s"], r.Setup.Seconds())
		res.RepValues["host_ops_per_s"] = append(res.RepValues["host_ops_per_s"], fastRate(r.Slices))
		x.logf("  rep %d: setup %.3fs, window %.3fs, %d ops (%.0f/s the whole window, %.0f/s its fast slices), %d failed\n", res.Reps,
			r.Setup.Seconds(), r.Window.Seconds(), r.Ops, float64(r.Ops)/r.Window.Seconds(), fastRate(r.Slices), r.Failed)
		if reps > 0 {
			if res.Reps >= reps {
				break
			}
		} else if res.Reps >= minReps && (time.Since(began)+longest).Seconds() > seconds {
			break
		}
	}
	x.logf("  host_ops_per_s: %d kind(s) of slice, each read at the %.0f%% quantile of its %d readings (the first kind's: p10 %.0f, p50 %.0f, p90 %.0f, fastest %.0f)\n",
		len(byKind), 100*fastShare, len(byKind[0]), quantile(byKind[0], 0.1), quantile(byKind[0], 0.5), quantile(byKind[0], 0.9), quantile(byKind[0], 1))

	m := metricSet{}
	m.merge(base.Sim)
	m.merge(first)
	m["setup_s"] = median(res.RepValues["setup_s"])
	m["host_ops_per_s"] = fastRate(byKind)
	if m["peak_rss_mb"], err = peakRSSMiB(); err != nil {
		return res, err
	}
	m["ssp_over_undo_tps"] = m["sim_ctps"] / base.UndoTPS
	m["ssp_over_redo_tps"] = m["sim_ctps"] / base.RedoTPS
	m["ssp_over_undo_nvram_writes"] = m["sim_nvram_bytes_per_txn"] / base.UndoBytesPerTxn
	res.Metrics = m.values(endToEnd)
	res.Correct = res.Failed == 0
	return res, nil
}

// runTraced produces the per-layer metrics: the workload once with the
// driver recording spans, then the unit-cost microloops.
func runTraced(name string, x *runCtx) (workloadResult, error) {
	t, err := tracedWorkload(name, x)
	if err != nil {
		return workloadResult{}, err
	}
	collectGarbage()
	return tracedReport(name, x, t, unitCosts(x)), nil
}

// tracedWorkload is the workload-specific half of the traced run, at the
// traced run's length: the workload with spans, then its logging baselines
// for the logging.* counters.
func tracedWorkload(name string, x *runCtx) (tracedResult, error) {
	tx := *x
	tx.sz = x.sz.tracedSizes()
	t, err := drivers[name].traced(&tx)
	if err != nil {
		return t, fmt.Errorf("%s traced: %w", name, err)
	}
	base, err := drivers[name].baseline(&tx)
	if err != nil {
		return t, fmt.Errorf("%s baseline: %w", name, err)
	}
	t.Layer.merge(base.Layer)
	return t, nil
}

// tracedReport joins the workload's spans and counters with the unit costs.
func tracedReport(name string, x *runCtx, t tracedResult, units metricSet) workloadResult {
	t.Layer.merge(units)
	if t.Table != "" {
		x.logf("\nstack: request class x layer (simulated cycles and host ns per request)\n%s", t.Table)
	}
	if t.TxnHostNS > 0 {
		x.logf("\n%s", estimate(t.Layer, t.TxnHostNS))
	}
	return workloadResult{
		Workload: name, Trace: 1, Seed: x.seed, Reps: 1,
		OpsPerRep: t.Ops, Attempted: t.Ops, Failed: t.Failed, Correct: t.Failed == 0,
		Metrics: t.Layer.values(perLayer),
	}
}

// values renders m as the reported map for defs, absent names reading 0.
func (m metricSet) values(defs []metricDef) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: m[d.Name], Unit: d.Unit}
	}
	return out
}

// diff names the first key (in sorted order) whose value differs between m
// and o, or "" when they are identical.
func (m metricSet) diff(o metricSet) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if ov, ok := o[k]; !ok || ov != m[k] {
			return fmt.Sprintf("%s (%v vs %v)", k, m[k], o[k])
		}
	}
	if len(o) != len(m) {
		return "key sets differ"
	}
	return ""
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// percentile is the exact nearest-rank p-th percentile of raw samples
// (sorted in place).
func percentile(s []uint32, p float64) uint32 {
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(p / 100 * float64(len(s)))
	if float64(rank)*100 < p*float64(len(s)) {
		rank++
	}
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// simMetrics derives the simulated end-to-end metrics of one SSP window: ops
// operations acknowledged over seconds of simulated time, the window's
// counters through its closing drain, and each operation's latency in cycles.
func simMetrics(ops int, seconds float64, st *ssp.Stats, lat []uint32) metricSet {
	return metricSet{
		"sim_ctps":                float64(ops) / seconds,
		"sim_nvram_bytes_per_txn": float64(st.TotalWriteBytes()) / float64(st.Commits),
		"sim_ack_p50_cycles":      float64(percentile(lat, 50)),
		"sim_ack_p99_cycles":      float64(percentile(lat, 99)),
	}
}
