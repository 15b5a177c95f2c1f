// Command benchjson converts `go test -bench` output into a JSON report and
// gates CI on benchmark regressions.
//
// It parses the standard benchmark line format
//
//	BenchmarkName-8   1   123456 ns/op   2345678 SSP_cTPS   1.40 SSP_speedup
//
// into {benchmark: {metric: value}}, stamps the report with the host it ran
// on ("host": CPU count, GOMAXPROCS, Go version), writes it (BENCH_ci.json
// in CI, uploaded as an artifact), and compares selected metrics against a
// checked-in baseline:
//
//	go test -bench=. -benchtime=1x -run '^$' . | tee bench.txt
//	benchjson -in bench.txt -out BENCH_ci.json \
//	    -baseline ci/bench_baseline.json \
//	    -gate BenchmarkParallelSmoke/SSP_cTPS -threshold 0.20
//
// Each gate spec may carry a direction suffix: `spec:max` (the default)
// gates a higher-is-better metric and fails when
// current < baseline*(1-threshold); `spec:min` gates a lower-is-better
// metric (latency percentiles) and fails when
// current > baseline*(1+threshold):
//
//	-gate BenchmarkParallelSmoke/SSP_cTPS,BenchmarkServeSmoke/Serve_p99:min
//
// Gated metrics missing from the baseline are reported but do not fail (new
// benchmarks land before their baseline). Refresh the baseline with -update
// after an intentional change:
//
//	benchjson -in bench.txt -update -baseline ci/bench_baseline.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Host identifies the machine and toolchain a report was produced on, so
// host-dependent metrics (ns/op, wall-clock ratios) stay attributable.
// benchjson runs in the same job as the benchmarks it converts.
type Host struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// Report is the JSON document benchjson reads and writes.
type Report struct {
	// Host is zero when read from a report written before it was recorded.
	Host Host `json:"host"`
	// Benchmarks maps benchmark name (GOMAXPROCS suffix stripped) to its
	// metrics: the standard ns/op plus every b.ReportMetric unit.
	Benchmarks map[string]map[string]float64 `json:"benchmarks"`
}

var procSuffix = regexp.MustCompile(`-\d+$`)

// parseBench extracts benchmark metrics from `go test -bench` output.
//
// Non-benchmark lines (goos/goarch/pkg/cpu headers, PASS, ok, test logs)
// are skipped; a line that DOES start with "Benchmark" but does not parse
// as the name / iteration-count / (value, unit)-pairs format is an error —
// silently dropping it would erase the very metrics CI gates on, and the
// gate would then "fail open" as a missing-baseline leniency.
func parseBench(r io.Reader) (Report, error) {
	rep := Report{
		Host:       Host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()},
		Benchmarks: map[string]map[string]float64{},
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 1 {
			// The bare announcement line `BenchmarkName` go test prints when
			// a benchmark interleaves its own output; the metrics line with
			// the same name follows later.
			continue
		}
		// Name, iteration count, then (value, unit) pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			return rep, fmt.Errorf("line %d: malformed benchmark line (%d fields, want name + count + value/unit pairs): %q",
				ln, len(fields), line)
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			return rep, fmt.Errorf("line %d: iteration count %q is not an integer: %q", ln, fields[1], line)
		}
		name := procSuffix.ReplaceAllString(fields[0], "")
		metrics := rep.Benchmarks[name]
		if metrics == nil {
			metrics = map[string]float64{}
			rep.Benchmarks[name] = metrics
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return rep, fmt.Errorf("line %d: value %q for unit %q is not a number: %q",
					ln, fields[i], fields[i+1], line)
			}
			// Benchmarks that run multiple iterations report a metric once
			// per line; the last value wins, which matches -benchtime=1x.
			metrics[fields[i+1]] = v
		}
	}
	return rep, sc.Err()
}

func readReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	return rep, json.Unmarshal(data, &rep)
}

func writeReport(path string, rep Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// lookup resolves a "Benchmark/metric" gate spec against a report. Both
// benchmark names (sub-benchmarks) and metric units (ns/op, simcycles/txn)
// may contain slashes, so every split point is tried.
func lookup(rep Report, spec string) (float64, bool) {
	for i := len(spec) - 1; i > 0; i-- {
		if spec[i] != '/' {
			continue
		}
		if m, ok := rep.Benchmarks[spec[:i]]; ok {
			if v, ok := m[spec[i+1:]]; ok {
				return v, true
			}
		}
	}
	return 0, false
}

func main() {
	in := flag.String("in", "-", "benchmark output file (- for stdin)")
	out := flag.String("out", "BENCH_ci.json", "JSON report to write")
	baseline := flag.String("baseline", "", "baseline JSON to compare against")
	gates := flag.String("gate", "", "comma-separated Benchmark/metric[:min|:max] specs to gate (default :max, higher is better)")
	threshold := flag.Float64("threshold", 0.20, "allowed fractional regression against baseline (drop for :max gates, rise for :min)")
	update := flag.Bool("update", false, "rewrite the baseline from this run instead of gating")
	flag.Parse()

	var src io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		src = f
	}
	rep, err := parseBench(src)
	if err != nil {
		fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in %s", *in))
	}
	if err := writeReport(*out, rep); err != nil {
		fatal(err)
	}
	fmt.Printf("benchjson: %d benchmarks -> %s\n", len(rep.Benchmarks), *out)

	if *baseline == "" {
		return
	}
	if *update {
		if err := writeReport(*baseline, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("benchjson: baseline %s updated\n", *baseline)
		return
	}
	base, err := readReport(*baseline)
	if err != nil {
		fatal(fmt.Errorf("reading baseline: %w", err))
	}

	lines, failed := checkGates(rep, base, *gates, *threshold)
	for _, line := range lines {
		fmt.Println(line)
	}
	if failed {
		os.Exit(1)
	}
}

// checkGates evaluates every gate spec against the baseline and returns the
// report lines plus whether any gate failed. A spec's ":min"/":max" suffix
// selects the regression direction (":max", the default, fails on drops;
// ":min" fails on rises).
func checkGates(rep, base Report, gates string, threshold float64) ([]string, bool) {
	var lines []string
	failed := false
	specs := strings.Split(gates, ",")
	sort.Strings(specs)
	for _, spec := range specs {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		lowerIsBetter := false
		if s, ok := strings.CutSuffix(spec, ":min"); ok {
			spec, lowerIsBetter = s, true
		} else if s, ok := strings.CutSuffix(spec, ":max"); ok {
			spec = s
		}
		cur, ok := lookup(rep, spec)
		if !ok {
			lines = append(lines, fmt.Sprintf("benchjson: FAIL %s: metric missing from this run", spec))
			failed = true
			continue
		}
		want, ok := lookup(base, spec)
		if !ok {
			lines = append(lines, fmt.Sprintf("benchjson: %s = %s (no baseline yet; run -update to record)", spec, num(cur)))
			continue
		}
		if lowerIsBetter {
			ceil := want * (1 + threshold)
			if cur > ceil {
				lines = append(lines, fmt.Sprintf("benchjson: FAIL %s = %s, above %s (baseline %s + %d%%)",
					spec, num(cur), num(ceil), num(want), int(threshold*100)))
				failed = true
			} else {
				lines = append(lines, fmt.Sprintf("benchjson: OK %s = %s (baseline %s, ceiling %s)", spec, num(cur), num(want), num(ceil)))
			}
			continue
		}
		floor := want * (1 - threshold)
		if cur < floor {
			lines = append(lines, fmt.Sprintf("benchjson: FAIL %s = %s, below %s (baseline %s - %d%%)",
				spec, num(cur), num(floor), num(want), int(threshold*100)))
			failed = true
		} else {
			lines = append(lines, fmt.Sprintf("benchjson: OK %s = %s (baseline %s, floor %s)", spec, num(cur), num(want), num(floor)))
		}
	}
	return lines, failed
}

// num prints a gated value: a whole number for the counters and rates, four
// significant digits for a metric below 100 (a ratio, MiB per build).
func num(v float64) string {
	if v >= 100 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.4g", v)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
