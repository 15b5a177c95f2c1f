// Command sspcrash is the crash-recovery fuzzer: for every row of the
// crash class table (internal/crashsweep.Classes) and every
// failure-atomicity design, it generates scripts from fresh seeds, injects
// a power failure after every possible NVRAM write, recovers, and checks
// the recovered state against the class's commit contract. The in-tree
// tests sweep the same table on fixed seeds; this tool runs it at fuzzing
// scale. A failure line names class, backend, script seed and trap index;
// the class name is also the test (TestTrapSweep<class>) that sweeps it.
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

	total, failures := 0, 0
	for _, cl := range crashsweep.Classes {
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
				points, bad := crashsweep.Sweep(cfg, sc, os.Stdout)
				total += points
				failures += bad
				fmt.Printf("%-21s %-9s script seed %#x: %4d trap points, %d violations\n", cl.Name, b, sc.Seed, points, bad)
			}
		}
	}
	fmt.Printf("\n%d trap points checked, %d violations\n", total, failures)
	if failures > 0 {
		os.Exit(1)
	}
}
