package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/stats"
	"repro/ssp"
)

// testSizes shrinks every workload to a fraction of a second; the names and
// identities under test do not depend on length.
func testSizes() sizes {
	return sizes{
		NVRAMMB:  32,
		TreeKeys: 512, TreeTxns: 800,
		SPSElems: 1 << 14, SPSTxns: 400,
		BaseTxns: 200,
		ServeOps: 800, ServeItems: 128,
		TCPOps: 600, TCPKeys: 256, TCPWarm: 256,
		CrashScripts: 1, CrashTxns: 2, CrashSimScripts: 8,
	}
}

func testCtx(t *testing.T) *runCtx {
	return &runCtx{seed: 7, sz: testSizes(), outDir: t.TempDir(), log: io.Discard}
}

// TestDeclarationMatchesHarness holds BENCHMARK.json and the harness's own
// tables to each other, and both to the benchmark contract's limits.
func TestDeclarationMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	if want := describe(); !reflect.DeepEqual(d, want) {
		t.Errorf("BENCHMARK.json is out of step with the harness; regenerate it with `go run ./benchmark -describe > BENCHMARK.json`")
	}

	if n := len(d.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(d.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(d.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if d.RunSeconds < 1 || d.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", d.RunSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range d.Workloads {
		check(w.Name)
		if len(w.Why) > 200 || w.Why == "" {
			t.Errorf("workload %s: why has %d characters, want 1..200", w.Name, len(w.Why))
		}
		if _, ok := drivers[w.Name]; !ok {
			t.Errorf("workload %s is declared but has no driver", w.Name)
		}
	}
	setup := false
	for _, m := range d.EndToEnd {
		check(m.Name)
		if m.Bound == nil || *m.Bound < 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v, want 0..0.25", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s, better lower")
	}
	for _, m := range append(d.EndToEnd, d.PerLayer...) {
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range d.PerLayer {
		check(m.Name)
		if m.Bound != nil {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
}

// TestEveryWorkloadEmitsEveryMetric runs each workload untraced (two
// repetitions — runUntraced itself fails if a simulated metric differs
// between them) and traced, and checks the emitted names against the tables.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	defer func(d time.Duration) { unitTarget = d }(unitTarget)
	unitTarget = time.Millisecond
	units := unitCosts(testCtx(t)) // the same for every workload: once is enough here
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			x := testCtx(t)
			res, err := runUntraced(w.Name, x, 0, 2)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 || res.Reps != 2 {
				t.Errorf("untraced: %d reps, %d attempted, %d failed", res.Reps, res.Attempted, res.Failed)
			}
			sameNames(t, "untraced", res.Metrics, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.Name].Value == 0 {
					t.Errorf("end-to-end metric %s reads 0", d.Name)
				}
			}

			tw, err := tracedWorkload(w.Name, x)
			if err != nil {
				t.Fatal(err)
			}
			for k := range units {
				if _, clash := tw.Layer[k]; clash {
					t.Errorf("%s is both a unit cost and a workload metric", k)
				}
			}
			tr := tracedReport(w.Name, x, tw, units)
			if tr.Failed != 0 || tr.Attempted == 0 {
				t.Errorf("traced: %d attempted, %d failed", tr.Attempted, tr.Failed)
			}
			sameNames(t, "traced", tr.Metrics, perLayer)
			for k := range tw.Layer {
				if _, ok := tr.Metrics[k]; !ok {
					t.Errorf("traced: %s measured but not declared", k)
				}
			}
			if gap := tr.Metrics["trace.cycle_gap"].Value; gap != 0 {
				t.Errorf("cycle-sum identity: %v simulated cycles outside lock+begin+op+commit", gap)
			}
			for _, s := range scoped {
				if s.Workload == w.Name && tr.Metrics[s.Name].Value == 0 {
					t.Errorf("%s reads 0 on the workload that owns it", s.Name)
				}
			}
			if _, err := os.Stat(x.outDir + "/trace-" + w.Name + ".json"); err != nil {
				t.Errorf("no span file: %v", err)
			}
		})
	}
}

func sameNames(t *testing.T, mode string, got map[string]metricValue, want []metricDef) {
	t.Helper()
	for _, d := range want {
		v, ok := got[d.Name]
		if !ok {
			t.Errorf("%s: declared metric %s not emitted", mode, d.Name)
		} else if v.Unit != d.Unit {
			t.Errorf("%s: %s emitted with unit %q, declared %q", mode, d.Name, v.Unit, d.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics emitted, %d declared", mode, len(got), len(want))
	}
}

// TestCycleIdentityOnTree records a traced tree window and checks the
// identity directly: the four child spans' cycles are the clock advance.
func TestCycleIdentityOnTree(t *testing.T) {
	x := testCtx(t)
	in, err := buildTree(x, ssp.SSP)
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder("tree-1c", 5*x.sz.TreeTxns)
	w := in.run(x.sz.TreeTxns, "tree txn", rec)
	var children int64
	for _, a := range rec.aggregate() {
		if !a.Root {
			children += a.Cycles
		}
	}
	if children != int64(w.Cycles) {
		t.Errorf("lock+begin+op+commit = %d cycles, the core clock advanced %d", children, w.Cycles)
	}
}

func TestHistPercentileInterpolates(t *testing.T) {
	var h stats.Histogram
	for v := uint64(1000); v < 2000; v++ {
		h.Record(v)
	}
	// 1000..1999 uniformly: the median is 1500 give or take a bucket's
	// rounding, and never the bucket's upper bound (1535).
	if p := histPercentile(&h, 50); p < 1490 || p > 1510 {
		t.Errorf("p50 of 1000..1999 = %v", p)
	}
	if p := histPercentile(&h, 100); p != 1999 {
		t.Errorf("p100 = %v, want the largest value seen", p)
	}
}

func TestVerdict(t *testing.T) {
	higher := metricDef{Name: "x", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "y", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		d          metricDef
		a, b       float64
		repsA      []float64
		repsB      []float64
		want       string
		worseAbove float64
	}{
		{higher, 100, 95, []float64{99, 100, 101}, []float64{94, 95, 96}, "ok", 0.04},
		{higher, 100, 80, []float64{99, 100, 101}, []float64{79, 80, 81}, "regressed", 0.19},
		{lower, 100, 80, nil, nil, "ok", -0.21},
		{lower, 100, 120, nil, nil, "regressed", 0.19},
		// Spread wider than the bound and overlapping readings: unresolved.
		{higher, 100, 95, []float64{80, 100, 120}, []float64{75, 95, 115}, "unresolved", 0.04},
		// Wide, but every reading of b is worse than every reading of a.
		{higher, 100, 50, []float64{85, 100, 115}, []float64{45, 50, 55}, "regressed", 0.49},
		// Wide, but every reading of b is better.
		{higher, 100, 150, []float64{85, 100, 115}, []float64{140, 150, 160}, "ok", -0.51},
	} {
		got := verdict(c.d, c.a, c.b, c.repsA, c.repsB)
		if got.word != c.want || got.worse < c.worseAbove {
			t.Errorf("%s %v -> %v: %s (worse %.2f), want %s", c.d.Better, c.a, c.b, got.word, got.worse, c.want)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := spread(v), (8.25-2.75)/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestFastRate(t *testing.T) {
	// One kind of slice: the 90% quantile of its readings, interpolated.
	one := [][]float64{{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}}
	if got := fastRate(one); got != 100 {
		t.Errorf("fastRate of 10..110 = %v, want 100", got)
	}
	// Two kinds of equal weight at 100 and 300 ops/s: their times per
	// operation add up, so the window runs at the harmonic mean.
	two := [][]float64{{100, 100}, {300, 300}}
	if got := fastRate(two); got != 150 {
		t.Errorf("fastRate of two kinds = %v, want 150", got)
	}
	// A slow phase that covers most of a run leaves the reading alone as
	// long as a tenth of the slices escaped it.
	mixed := [][]float64{append(make([]float64, 0, 100), 100)}
	for i := 1; i < 100; i++ {
		v := 60.0
		if i%5 == 0 {
			v = 100
		}
		mixed[0] = append(mixed[0], v)
	}
	if got := fastRate(mixed); got != 100 {
		t.Errorf("fastRate with 80%% of the slices slowed = %v, want 100", got)
	}
	if got := fastRate([][]float64{{}}); got != 0 {
		t.Errorf("fastRate of nothing = %v", got)
	}
}
