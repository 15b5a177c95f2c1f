// Command benchmark is this repository's benchmark: five workloads, the
// end-to-end metrics a user of the simulator sees (simulated and host), and
// a separate traced run that attributes them to layers. BENCHMARK.json at the
// repository root declares the same names; README.md beside this file says
// what each workload and metric is for.
//
//	go run ./benchmark -workload tree-1c -seed 1 -seconds 24 -trace 0
//	go run ./benchmark -workload tree-1c -seed 1 -trace 1
//	go run ./benchmark -out benchmark/results/run1.json     # all workloads, both modes
//	go run ./benchmark -compare a.json b.json
//
// With -workload the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. It claims no gain and holds
// no reference figures: the model is unvalidated against the paper's
// absolute numbers, so no error figure is printed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// suiteResult is the document -out writes and -compare reads.
type suiteResult struct {
	Env     hostEnv          `json:"env"`
	Seed    uint64           `json:"seed"`
	Seconds float64          `json:"seconds"`
	Results []workloadResult `json:"results"`
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: all five, each in its own process)")
	seed := flag.Uint64("seed", 1, "seed of every RNG the drivers own")
	seconds := flag.Float64("seconds", runSeconds, "untraced run: repeat for as long as another repetition still ends within this many seconds of the start")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, span recording off; 1: traced run, per-layer metrics")
	reps := flag.Int("reps", 0, "untraced run: exactly this many repetitions instead of -seconds")
	out := flag.String("out", "", "write the full result (environment, per-repetition values) to this file")
	outDir := flag.String("tracedir", "benchmark/out", "directory the traced run writes its span files to")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	desc := flag.Bool("describe", false, "print BENCHMARK.json as the harness's tables define it")
	flag.Parse()

	var err error
	switch {
	case *desc:
		var b []byte
		if b, err = json.MarshalIndent(describe(), "", "  "); err == nil {
			fmt.Printf("%s\n", b)
		}
	case *compare:
		err = runCompare(flag.Args())
	case *workload == "":
		err = runSuite(*seed, *seconds, *reps, *out, *outDir)
	default:
		err = runOne(*workload, *seed, *seconds, *reps, *trace, *out, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOne runs one workload in this process and prints its metrics by name
// with units, then the one-line JSON result.
func runOne(name string, seed uint64, seconds float64, reps, trace int, out, outDir string) error {
	def := findWorkload(name)
	if def == nil {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		return fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
	}
	env := readEnv()
	fmt.Printf("workload %s — %s\n", def.Name, def.Why)
	fmt.Printf("host: NumCPU %d, GOMAXPROCS %d, %s %s/%s, commit %s; seed %d\n",
		env.NumCPU, env.GOMAXPROCS, env.GoVersion, env.GOOS, env.GOARCH, env.Commit, seed)
	fmt.Println("the model is unvalidated against the paper's absolute numbers (the repo holds no reference figures): no error figure is given")

	x := &runCtx{seed: seed, sz: fullSizes(), outDir: outDir, log: os.Stdout}
	var res workloadResult
	var err error
	defs := endToEnd
	if trace != 0 {
		defs = perLayer
		res, err = runTraced(name, x)
	} else {
		res, err = runUntraced(name, x, seconds, reps)
	}
	if err != nil {
		return err
	}

	fmt.Printf("\n%s, %d repetition(s) of %d operations: %d attempted, %d failed\n", name, res.Reps, res.OpsPerRep, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Printf("  %-36s %18.6g %-10s %-4s  %s\n", d.Name, res.Metrics[d.Name].Value, d.Unit, d.Kind, d.Moves)
	}
	if out != "" {
		if err := writeJSON(out, suiteResult{Env: env, Seed: seed, Seconds: seconds, Results: []workloadResult{res}}); err != nil {
			return err
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

// runSuite runs every workload untraced and traced, each in a child process
// of its own so that peak_rss_mb belongs to one workload, and gathers the
// results into one file.
func runSuite(seed uint64, seconds float64, reps int, out, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(outDir, "result-*.json")
	if err != nil {
		return err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())

	suite := suiteResult{Env: readEnv(), Seed: seed, Seconds: seconds}
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(self,
				"-workload", w.Name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-reps", fmt.Sprint(reps), "-trace", fmt.Sprint(trace), "-tracedir", outDir, "-out", tmp.Name())
			cmd.Stdout = os.Stdout
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s (trace %d): %w", w.Name, trace, err)
			}
			var one suiteResult
			if err := readJSON(tmp.Name(), &one); err != nil {
				return err
			}
			suite.Results = append(suite.Results, one.Results...)
			fmt.Println()
		}
	}
	failed := 0
	for _, r := range suite.Results {
		failed += r.Failed
	}
	fmt.Printf("suite: %d workloads, %d failed operations\n", len(workloads), failed)
	if out != "" {
		if err := writeJSON(out, suite); err != nil {
			return err
		}
		fmt.Printf("result written to %s\n", out)
	}
	if failed > 0 {
		return fmt.Errorf("%d failed operations", failed)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
