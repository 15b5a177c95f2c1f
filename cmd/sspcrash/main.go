// Command sspcrash is the crash-recovery fuzzer: for every row of the
// crash class table (internal/crashsweep.Classes) and every
// failure-atomicity design, it generates scripts from fresh seeds, injects
// a power failure after every possible NVRAM write, recovers, and checks
// the recovered state against the class's commit contract. The in-tree
// tests sweep the same table on fixed seeds; this tool runs it at fuzzing
// scale. A failure line names class, backend, script seed and trap index;
// the class name is also the test (TestTrapSweep<class>) that sweeps it.
// The output ends with the total, then one line per class: its trap points
// over every backend and script, their wall time and the time per point —
// what a sweep of more scripts, or a new row like it, would cost.
//
// Usage:
//
//	sspcrash -scripts 20
//	sspcrash -backend SSP -seed 7 -txns 15
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/crashsweep"
	"repro/ssp"
)

func main() {
	scripts := flag.Int("scripts", 10, "random scripts per class and backend")
	txns := flag.Int("txns", 0, "transactions per script (0: each class's own length)")
	seed := flag.Uint64("seed", 1, "base RNG seed")
	backendFlag := flag.String("backend", "", "restrict to one backend (SSP | UNDO-LOG | REDO-LOG)")
	flag.Parse()

	backends := ssp.Backends()
	if *backendFlag != "" {
		backends = nil
		for _, b := range ssp.Backends() {
			if b.String() == *backendFlag {
				backends = append(backends, b)
			}
		}
		if len(backends) == 0 {
			fmt.Fprintf(os.Stderr, "unknown backend %q\n", *backendFlag)
			os.Exit(2)
		}
	}

	total, totalNested, failures := 0, 0, 0
	type cost struct {
		points, nested int
		wall           time.Duration
	}
	costs := make([]cost, len(crashsweep.Classes))
	for i, cl := range crashsweep.Classes {
		start := time.Now()
		n := cl.Txns
		if *txns > 0 {
			n = *txns
		}
		cfg := cl.Config
		for _, b := range backends {
			cfg.Backend = b
			for s := 0; s < *scripts; s++ {
				sc := cl.Script(*seed+uint64(s)*1000003, n)
				sc.Class = cl.Name
				points, nested, bad := crashsweep.Sweep(cfg, sc, os.Stdout)
				total += points
				totalNested += nested
				costs[i].points += points
				costs[i].nested += nested
				failures += bad
				fmt.Printf("%-23s %-9s script seed %#x: %4d trap points, %4d nested cuts, %d violations\n", cl.Name, b, sc.Seed, points, nested, bad)
			}
		}
		costs[i].wall = time.Since(start)
	}
	fmt.Printf("\n%d trap points and %d nested cuts checked, %d violations\n", total, totalNested, failures)
	for i, cl := range crashsweep.Classes {
		c := costs[i]
		fmt.Printf("%-23s %6d trap points %6d nested cuts %9.3f s %8.1f µs/point\n", cl.Name, c.points, c.nested, c.wall.Seconds(),
			float64(c.wall.Microseconds())/float64(max(1, c.points+c.nested)))
	}
	if failures > 0 {
		os.Exit(1)
	}
}
