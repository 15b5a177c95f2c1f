package main

import (
	"fmt"
	"math"
	"sort"
)

// runCompare is `-compare a.json b.json`: a is the parent, b the change. One
// row per workload x end-to-end metric with both readings, the relative
// change in the metric's worse direction, its bound and a verdict:
//
//	ok          b is not worse than a by more than the bound
//	regressed   b is worse by more than the bound, and the spread does not explain it
//	unresolved  the repetitions spread wider than the bound, and the two
//	            sides' repetitions overlap — neither "unchanged" nor "regressed"
//
// It fails on any regressed row, on a larger failed-operation share, and on
// result files from hosts whose CPU count or Go version differ (host numbers
// from different machines are not comparable; re-run both on one host).
func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare wants two result files, got %d", len(args))
	}
	var a, b suiteResult
	if err := readJSON(args[0], &a); err != nil {
		return err
	}
	if err := readJSON(args[1], &b); err != nil {
		return err
	}
	fmt.Printf("a: %s  commit %s, NumCPU %d, GOMAXPROCS %d, %s, seed %d\n", args[0], a.Env.Commit, a.Env.NumCPU, a.Env.GOMAXPROCS, a.Env.GoVersion, a.Seed)
	fmt.Printf("b: %s  commit %s, NumCPU %d, GOMAXPROCS %d, %s, seed %d\n", args[1], b.Env.Commit, b.Env.NumCPU, b.Env.GOMAXPROCS, b.Env.GoVersion, b.Seed)
	if a.Env.NumCPU != b.Env.NumCPU || a.Env.GOMAXPROCS != b.Env.GOMAXPROCS || a.Env.GoVersion != b.Env.GoVersion || a.Env.GOARCH != b.Env.GOARCH {
		return fmt.Errorf("REFUSED: the two results come from different hosts or toolchains; host metrics are not comparable")
	}
	if a.Seed != b.Seed {
		fmt.Println("NOTE: different seeds — simulated metrics differ by input, not only by code")
	}

	regressed, unresolved, drift := 0, 0, 0
	fmt.Printf("\n%-13s %-32s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			ra, rb := a.find(w.Name, trace), b.find(w.Name, trace)
			if ra == nil || rb == nil {
				continue
			}
			if shareA, shareB := failShare(ra), failShare(rb); shareB > shareA {
				fmt.Printf("%-13s failed operations rose: %d/%d -> %d/%d\n", w.Name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
				regressed++
			}
			for _, d := range comparedMetrics(w.Name, trace) {
				va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
				v := verdict(d, va, vb, ra.RepValues[d.Name], rb.RepValues[d.Name])
				switch v.word {
				case "regressed":
					regressed++
				case "unresolved":
					unresolved++
				}
				note := ""
				if d.Kind == "sim" && va != vb {
					drift++
					note = "  (simulated value changed)"
				}
				fmt.Printf("%-13s %-32s %14.6g %14.6g %+8.2f%% %6.0f%%  %s%s\n", w.Name, d.Name, va, vb, 100*v.worse, 100*d.Bound, v.word, note)
			}
		}
	}
	fmt.Printf("\n%d regressed, %d unresolved, %d simulated values changed\n", regressed, unresolved, drift)
	if regressed > 0 {
		return fmt.Errorf("%d regressed", regressed)
	}
	return nil
}

func (s *suiteResult) find(workload string, trace int) *workloadResult {
	for i := range s.Results {
		if r := &s.Results[i]; r.Workload == workload && r.Trace == trace {
			return r
		}
	}
	return nil
}

func failShare(r *workloadResult) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// comparedMetrics lists the bounded metrics of one (workload, mode): every
// end-to-end metric in the untraced result, and in the traced result the
// end-to-end metrics scoped to that workload.
func comparedMetrics(workload string, trace int) []metricDef {
	if trace == 0 {
		return endToEnd
	}
	var out []metricDef
	for _, s := range scoped {
		if s.Workload == workload {
			out = append(out, s.metricDef)
		}
	}
	return out
}

type verdictResult struct {
	word  string
	worse float64 // relative change in the worse direction (positive = worse)
}

// verdict applies the bound. repsA and repsB are the per-repetition readings
// (empty for simulated metrics, which have one exact value).
func verdict(d metricDef, a, b float64, repsA, repsB []float64) verdictResult {
	worse := 0.0
	if a != 0 {
		worse = (b - a) / math.Abs(a)
		if d.Better == "higher" {
			worse = -worse
		}
	} else if b != a {
		worse = math.Inf(1)
		if (b > a) == (d.Better == "higher") {
			worse = math.Inf(-1)
		}
	}
	v := verdictResult{word: "ok", worse: worse}
	wide := spread(repsA) > d.Bound || spread(repsB) > d.Bound
	switch {
	case wide && separated(d, repsA, repsB) > 0:
		// Every repetition of b reads better than every repetition of a.
	case wide && !(worse > d.Bound && separated(d, repsA, repsB) < 0):
		v.word = "unresolved"
	case worse > d.Bound:
		v.word = "regressed"
	}
	return v
}

// separated reports +1 when every reading of b is better than every reading
// of a, -1 when every one is worse, 0 when they overlap.
func separated(d metricDef, a, b []float64) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	minA, maxA := minMax(a)
	minB, maxB := minMax(b)
	bLower, bHigher := maxB < minA, minB > maxA
	if d.Better == "higher" {
		bLower, bHigher = bHigher, bLower
	}
	switch {
	case bLower:
		return 1
	case bHigher:
		return -1
	}
	return 0
}

func minMax(v []float64) (lo, hi float64) {
	lo, hi = v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	return
}

// spread is the distance between the first and third quartile as a share of
// the median (quartiles as Python's statistics.quantiles(v, n=4) gives them);
// with fewer than four readings, the full range over the median.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	med := median(s)
	if med == 0 {
		return 0
	}
	if len(s) < 4 {
		return (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4 // 1-based, exclusive method
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return (q(3) - q(1)) / math.Abs(med)
}
