package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkParallelSmoke 	       1	 261932645 ns/op	   3064114 SSP_cTPS	   1241119 SSP_serial_cTPS	         2.469 SSP_speedup
BenchmarkTxnPath/SSP-8         	       1	      8854 ns/op	     11778 simcycles/txn
PASS
ok  	repro	28.101s
`

func TestParseBench(t *testing.T) {
	rep, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(rep.Benchmarks))
	}
	smoke := rep.Benchmarks["BenchmarkParallelSmoke"]
	if smoke == nil {
		t.Fatal("BenchmarkParallelSmoke missing")
	}
	if smoke["SSP_cTPS"] != 3064114 {
		t.Errorf("SSP_cTPS = %v", smoke["SSP_cTPS"])
	}
	if smoke["SSP_speedup"] != 2.469 {
		t.Errorf("SSP_speedup = %v", smoke["SSP_speedup"])
	}
	// The -8 GOMAXPROCS suffix is stripped from sub-benchmarks too.
	if rep.Benchmarks["BenchmarkTxnPath/SSP"] == nil {
		t.Fatal("BenchmarkTxnPath/SSP missing (suffix not stripped?)")
	}
	// Every emitted report names the host it was produced on.
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf(`"host":{"num_cpu":%d,"gomaxprocs":%d,"go_version":%q}`,
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	if !strings.Contains(string(data), want) {
		t.Errorf("report lacks %s: %s", want, data)
	}
}

// TestParseBenchRejectsMalformed pins the strict half of the parser: a
// line that claims to be a benchmark result but cannot be parsed must fail
// the conversion (a silent skip would let a CI gate fail open by erasing
// the gated metric), while genuinely non-benchmark lines stay ignored.
func TestParseBenchRejectsMalformed(t *testing.T) {
	bad := []struct {
		name, input string
	}{
		{"odd fields", "BenchmarkFoo-8 \t 1 \t 123 ns/op \t 456\n"},
		{"too few fields", "BenchmarkFoo-8 \t 1 \t 123\n"},
		{"bad iteration count", "BenchmarkFoo-8 \t one \t 123 ns/op\n"},
		{"bad metric value", "BenchmarkFoo-8 \t 1 \t fast ns/op\n"},
		{"bad later metric", "BenchmarkFoo-8 \t 1 \t 123 ns/op \t oops SSP_cTPS\n"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseBench(strings.NewReader(sample + tc.input)); err == nil {
				t.Fatalf("parseBench accepted %q", tc.input)
			}
		})
	}

	// The bare announcement line (benchmark with interleaved output) and
	// ordinary non-benchmark noise must still be skipped, not errors.
	ok := sample + "BenchmarkNoisy\nsome log output\nBenchmarkNoisy-8 \t 1 \t 99 ns/op\n"
	rep, err := parseBench(strings.NewReader(ok))
	if err != nil {
		t.Fatalf("parseBench rejected valid output: %v", err)
	}
	if rep.Benchmarks["BenchmarkNoisy"]["ns/op"] != 99 {
		t.Errorf("BenchmarkNoisy = %+v", rep.Benchmarks["BenchmarkNoisy"])
	}
}

// TestCheckGates pins direction-aware gating: ":max" (default) fails on
// drops, ":min" fails on rises, and missing baselines stay lenient.
func TestCheckGates(t *testing.T) {
	rep := Report{Benchmarks: map[string]map[string]float64{
		"BenchmarkServeSmoke": {"Serve_cTPS": 1000, "Serve_p99": 5000},
	}}
	base := Report{Benchmarks: map[string]map[string]float64{
		"BenchmarkServeSmoke": {"Serve_cTPS": 1000, "Serve_p99": 5000},
	}}
	cases := []struct {
		name       string
		cTPS, p99  float64
		gates      string
		wantFailed bool
	}{
		{"all at baseline", 1000, 5000, "BenchmarkServeSmoke/Serve_cTPS,BenchmarkServeSmoke/Serve_p99:min", false},
		{"throughput within threshold", 850, 5000, "BenchmarkServeSmoke/Serve_cTPS", false},
		{"throughput regressed", 700, 5000, "BenchmarkServeSmoke/Serve_cTPS", true},
		{"explicit max suffix", 700, 5000, "BenchmarkServeSmoke/Serve_cTPS:max", true},
		{"latency improved", 1000, 2000, "BenchmarkServeSmoke/Serve_p99:min", false},
		{"latency within threshold", 1000, 5800, "BenchmarkServeSmoke/Serve_p99:min", false},
		{"latency regressed", 1000, 6500, "BenchmarkServeSmoke/Serve_p99:min", true},
		// Without :min a latency rise would (wrongly) pass — the suffix is
		// what makes the metric gateable at all.
		{"latency rise without min passes", 1000, 6500, "BenchmarkServeSmoke/Serve_p99", false},
		{"missing metric fails", 1000, 5000, "BenchmarkServeSmoke/Nope:min", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cur := Report{Benchmarks: map[string]map[string]float64{
				"BenchmarkServeSmoke": {"Serve_cTPS": tc.cTPS, "Serve_p99": tc.p99},
			}}
			lines, failed := checkGates(cur, base, tc.gates, 0.20)
			if failed != tc.wantFailed {
				t.Fatalf("failed = %v, want %v; output:\n%s", failed, tc.wantFailed, strings.Join(lines, "\n"))
			}
		})
	}

	// A gated metric with no baseline entry reports but does not fail.
	empty := Report{Benchmarks: map[string]map[string]float64{}}
	lines, failed := checkGates(rep, empty, "BenchmarkServeSmoke/Serve_p99:min", 0.20)
	if failed {
		t.Fatalf("missing baseline should not fail:\n%s", strings.Join(lines, "\n"))
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "no baseline yet") {
		t.Fatalf("unexpected output: %v", lines)
	}
}

func TestLookup(t *testing.T) {
	rep, err := parseBench(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := lookup(rep, "BenchmarkParallelSmoke/SSP_cTPS"); !ok || v != 3064114 {
		t.Errorf("lookup SSP_cTPS = %v, %v", v, ok)
	}
	// Metric units containing slashes resolve via multi-split.
	if v, ok := lookup(rep, "BenchmarkTxnPath/SSP/simcycles/txn"); !ok || v != 11778 {
		t.Errorf("lookup simcycles/txn = %v, %v", v, ok)
	}
	if _, ok := lookup(rep, "BenchmarkMissing/metric"); ok {
		t.Error("missing benchmark resolved")
	}
}
