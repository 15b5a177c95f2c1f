package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call the driver made into a layer: host nanoseconds
// since the recorder started, and the calling core's simulated clock before
// and after (both 0 where no simulated core is involved, e.g. a TCP round
// trip). Parent is the index of the enclosing span, -1 for a request root.
type span struct {
	Name   string
	Class  string
	Parent int32
	H0, H1 int64
	C0, C1 int64
}

// recorder keeps spans in a preallocated slice and writes them out when the
// run ends. A nil *recorder is span recording switched off: open and close
// return at once, so one driver loop serves both the untraced and the traced
// run.
type recorder struct {
	workload string
	t0       time.Time
	spans    []span
}

func newRecorder(workload string, capacity int) *recorder {
	return &recorder{workload: workload, t0: time.Now(), spans: make([]span, 0, capacity)}
}

// open starts a span at simulated time cyc and returns its index.
func (r *recorder) open(name, class string, parent int32, cyc int64) int32 {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Class: class, Parent: parent, C0: cyc, H0: int64(time.Since(r.t0))})
	return int32(len(r.spans) - 1)
}

// close ends span i at simulated time cyc.
func (r *recorder) close(i int32, cyc int64) {
	if r == nil {
		return
	}
	s := &r.spans[i]
	s.H1 = int64(time.Since(r.t0))
	s.C1 = cyc
}

// spanAgg is one (class, name) cell of the stack table.
type spanAgg struct {
	Class, Name string
	Root        bool
	Count       int
	HostNS      int64 // sum of durations
	SelfNS      int64 // durations minus child spans
	Cycles      int64
	SelfCycles  int64
}

// aggregate folds the spans into per-(class, name) totals. Self time is a
// span's duration minus the part its child spans cover.
func (r *recorder) aggregate() []spanAgg {
	childH := make([]int64, len(r.spans))
	childC := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			childH[s.Parent] += s.H1 - s.H0
			childC[s.Parent] += s.C1 - s.C0
		}
	}
	idx := map[[2]string]int{}
	var out []spanAgg
	for i, s := range r.spans {
		k := [2]string{s.Class, s.Name}
		j, ok := idx[k]
		if !ok {
			j = len(out)
			idx[k] = j
			out = append(out, spanAgg{Class: s.Class, Name: s.Name, Root: s.Parent < 0})
		}
		a := &out[j]
		a.Count++
		a.HostNS += s.H1 - s.H0
		a.SelfNS += s.H1 - s.H0 - childH[i]
		a.Cycles += s.C1 - s.C0
		a.SelfCycles += s.C1 - s.C0 - childC[i]
	}
	return out
}

// rootTotals sums the request-root spans: how much host time and how many
// simulated cycles the spans cover, for the two identities.
func (r *recorder) rootTotals() (hostNS, cycles int64) {
	for _, s := range r.spans {
		if s.Parent < 0 {
			hostNS += s.H1 - s.H0
			cycles += s.C1 - s.C0
		}
	}
	return
}

// perOp returns the mean host ns and simulated cycles per call of the named
// span within class ("" matches any class).
func perOp(aggs []spanAgg, class, name string) (hostNS, cycles float64) {
	var n int
	var h, c int64
	for _, a := range aggs {
		if a.Name == name && (class == "" || a.Class == class) {
			n += a.Count
			h += a.HostNS
			c += a.Cycles
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(h) / float64(n), float64(c) / float64(n)
}

// stackTable renders the request-class x layer table: for each class, one
// line per span name with calls per request, simulated cycles and host ns
// per request (self time, so the lines of a class add up to its root).
func stackTable(aggs []spanAgg) string {
	rootCount := map[string]int{}
	for _, a := range aggs {
		if a.Root {
			rootCount[a.Class] += a.Count
		}
	}
	sort.SliceStable(aggs, func(i, j int) bool {
		if aggs[i].Class != aggs[j].Class {
			return aggs[i].Class < aggs[j].Class
		}
		return aggs[i].Root && !aggs[j].Root
	})
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-18s %10s %14s %14s %14s %14s\n",
		"request class", "span (layer)", "calls/req", "sim cyc/req", "self cyc/req", "host ns/req", "self ns/req")
	for _, a := range aggs {
		n := float64(rootCount[a.Class])
		if n == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-14s %-18s %10.2f %14.1f %14.1f %14.1f %14.1f\n",
			a.Class, a.Name, float64(a.Count)/n,
			float64(a.Cycles)/n, float64(a.SelfCycles)/n, float64(a.HostNS)/n, float64(a.SelfNS)/n)
	}
	return b.String()
}

// write dumps the spans as JSON: a header naming the columns, then one array
// per span. Rows are written by hand — a quarter-million spans through
// encoding/json would cost more than the run they describe.
func (r *recorder) write(x *runCtx) error {
	if err := os.MkdirAll(x.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(x.outDir, "trace-"+r.workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\n\"columns\":[\"name\",\"request_class\",\"parent\",\"host_start_ns\",\"host_end_ns\",\"sim_start_cycles\",\"sim_end_cycles\"],\n\"spans\":[\n", r.workload)
	for i, s := range r.spans {
		sep := ","
		if i == len(r.spans)-1 {
			sep = ""
		}
		fmt.Fprintf(w, "[%q,%q,%d,%d,%d,%d,%d]%s\n", s.Name, s.Class, s.Parent, s.H0, s.H1, s.C0, s.C1, sep)
	}
	fmt.Fprintf(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	x.logf("  %d spans written to %s\n", len(r.spans), path)
	return f.Close()
}
