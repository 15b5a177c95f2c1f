// Command sspbench regenerates the paper's tables and figures on the
// simulated machine, plus the beyond-the-paper scaling experiments (the
// concurrent engine, multi-channel memory, journal sharding, cross-shard
// transactions, relaxed durability and the window scheduler). Each
// experiment prints
// the same rows/series the paper reports (normalised throughput, write
// traffic, breakdowns, sweeps).
//
// Usage:
//
//	sspbench -exp all                 # everything, small scale
//	sspbench -exp fig5a -scale full   # one experiment at full scale
//	sspbench -list                    # experiment ids + one-line summaries
//
// The experiment ids, the usage text and the `all` ordering all come from
// one table below, so they cannot drift apart; run -list for the live
// index. The root package's doc.go describes each beyond-the-paper
// mechanism an experiment sweeps, one section per subsystem.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/workload"
	"repro/ssp"
)

// benchFlags carries the sweep-shaping flags into the experiment runners.
type benchFlags struct {
	cores    int
	channels int
	shards   int
}

// experiment is one -exp entry: the id, the one-line summary printed by
// -list and the usage text, and the runner. The table is the single source
// of truth for the id list, so new experiments cannot drift out of the
// usage text or the `all` ordering.
type experiment struct {
	id      string
	summary string
	run     func(sc experiments.Scale, fl benchFlags)
}

var experimentTable = []experiment{
	{"table3", "workload write-set characterisation", func(sc experiments.Scale, fl benchFlags) {
		section("Table 3 — workload write-set characterisation")
		fmt.Println(experiments.RenderTable3(experiments.Table3(sc)))
	}},
	{"fig5a", "microbenchmark TPS, 1 thread (normalised to UNDO-LOG)", func(sc experiments.Scale, fl benchFlags) {
		section("Figure 5a — microbenchmark TPS, 1 thread (normalised to UNDO-LOG)")
		fmt.Println(experiments.RenderFig5(experiments.Micro(sc, 1), 1))
	}},
	{"fig5b", "microbenchmark TPS, 4 threads (normalised to UNDO-LOG)", func(sc experiments.Scale, fl benchFlags) {
		section("Figure 5b — microbenchmark TPS, 4 threads (normalised to UNDO-LOG)")
		fmt.Println(experiments.RenderFig5(experiments.Micro(sc, 4), 4))
	}},
	{"fig6", "logging writes (normalised to UNDO-LOG)", func(sc experiments.Scale, fl benchFlags) {
		section("Figure 6 — logging writes (normalised to UNDO-LOG, lower is better)")
		fmt.Println(experiments.RenderFig6(experiments.Micro(sc, 1)))
	}},
	{"fig7a", "total NVRAM writes (normalised to UNDO-LOG)", func(sc experiments.Scale, fl benchFlags) {
		section("Figure 7a — NVRAM writes (normalised to UNDO-LOG, lower is better)")
		fmt.Println(experiments.RenderFig7a(experiments.Micro(sc, 1)))
	}},
	{"fig7b", "breakdown of SSP's NVRAM writes", func(sc experiments.Scale, fl benchFlags) {
		section("Figure 7b — breakdown of NVRAM writes for SSP")
		fmt.Println(experiments.RenderFig7b(experiments.Micro(sc, 1)))
	}},
	{"fig8", "sensitivity to NVRAM latency", func(sc experiments.Scale, fl benchFlags) {
		section("Figure 8 — sensitivity to NVRAM latency")
		fmt.Println(experiments.RenderFig8(experiments.Fig8(sc)))
	}},
	{"fig9", "sensitivity to SSP cache latency", func(sc experiments.Scale, fl benchFlags) {
		section("Figure 9 — sensitivity to SSP cache latency")
		fmt.Println(experiments.RenderFig9(experiments.Fig9(sc)))
	}},
	{"table4", "real-workload performance improvement", func(sc experiments.Scale, fl benchFlags) {
		section("Table 4 — real-workload performance improvement")
		fmt.Println(experiments.RenderTable4(experiments.Table45(sc)))
	}},
	{"table5", "real-workload write-traffic saving", func(sc experiments.Scale, fl benchFlags) {
		section("Table 5 — real-workload write-traffic saving")
		fmt.Println(experiments.RenderTable5(experiments.Table45(sc)))
	}},
	{"ablate", "design-choice knob ablations", func(sc experiments.Scale, fl benchFlags) {
		section("Ablations — design-choice knobs (beyond the paper)")
		for _, t := range experiments.Ablations(sc) {
			fmt.Println(experiments.RenderAblations(t.Title, t.Rows))
		}
	}},
	{"recovery", "recovery effort vs journal capacity", func(sc experiments.Scale, fl benchFlags) {
		section("Recovery effort vs journal capacity (§4.1.2 checkpointing)")
		fmt.Println(experiments.RenderRecovery(experiments.RecoveryEffort(sc)))
	}},
	{"parallel", "goroutine-per-core engine vs 1-core serial", func(sc experiments.Scale, fl benchFlags) {
		section(fmt.Sprintf("Concurrent engine — %d goroutine-backed cores vs 1-core serial", fl.cores))
		fmt.Println(experiments.RenderGrid(experiments.ParallelScaling(sc, workload.Memcached, fl.cores)))
		fmt.Println(experiments.RenderGrid(experiments.ParallelScaling(sc, workload.Vacation, fl.cores)))
	}},
	{"channels", "multi-channel memory sweep (channels x cores)", func(sc experiments.Scale, fl benchFlags) {
		chList := experiments.SweepPowersOfTwo(fl.channels)
		coreList := experiments.SweepPowersOfTwo(fl.cores)
		for _, k := range []workload.Kind{workload.Memcached, workload.Vacation} {
			section(fmt.Sprintf("Multi-channel memory — SSP committed TPS on %s, %v channels x %v cores", k, chList, coreList))
			fmt.Println(experiments.RenderGrid(experiments.ChannelSweep(sc, k, ssp.SSP, chList, coreList)))
		}
	}},
	{"journal", "metadata-journal sharding sweep (shards x cores)", func(sc experiments.Scale, fl benchFlags) {
		shList := experiments.SweepPowersOfTwo(fl.shards)
		coreList := experiments.SweepPowersOfTwo(fl.cores)
		for _, k := range []workload.Kind{workload.Memcached, workload.Vacation} {
			section(fmt.Sprintf("Journal sharding — SSP committed TPS on %s, %v shards x %v cores (%d channels)", k, shList, coreList, fl.channels))
			fmt.Println(experiments.RenderGrid(experiments.JournalSweep(sc, k, fl.channels, shList, coreList)))
		}
	}},
	{"crossshard", "cross-shard transaction fraction sweep", func(sc experiments.Scale, fl benchFlags) {
		fracs := []int{0, 10, 25, 50}
		coreList := experiments.SweepPowersOfTwo(fl.cores)
		for _, k := range []workload.Kind{workload.MemcachedCross, workload.VacationCross} {
			section(fmt.Sprintf("Cross-shard transactions — SSP committed TPS on %s, %v%% global x %v cores (%d shards, %d channels)",
				k, fracs, coreList, fl.shards, fl.channels))
			fmt.Println(experiments.RenderGrid(experiments.CrossShardSweep(sc, k, fl.channels, fl.shards, fracs, coreList)))
		}
	}},
	{"epoch", "relaxed-durability epoch sweep (epoch x cores)", func(sc experiments.Scale, fl benchFlags) {
		coreList := experiments.SweepPowersOfTwo(fl.cores)
		epochs := experiments.EpochLengths()
		for _, mix := range experiments.EpochMixes() {
			section(fmt.Sprintf("Relaxed durability — SSP on %s (%d shards, %d channels), epochs %v x %v cores",
				mix.Kind, mix.Shards, mix.Channels, epochs, coreList))
			fmt.Println(experiments.RenderEpoch(experiments.EpochSweep(sc, mix, epochs, coreList)))
		}
	}},
	{"cache", "DRAM buffer cache sweep (frames x cores x skew)", func(sc experiments.Scale, fl benchFlags) {
		coreList := experiments.SweepPowersOfTwo(fl.cores)
		skews := experiments.CacheSkews()
		frames := experiments.CacheFrames()
		section(fmt.Sprintf("DRAM buffer cache — SSP serve mix (4 channels), skews %v x %v cores x frames %v",
			skews, coreList, frames))
		fmt.Println(experiments.RenderCache(experiments.CacheSweep(sc, skews, coreList, frames)))
	}},
	{"scale", "deterministic window-scheduler scale-out (window x cores)", func(sc experiments.Scale, fl benchFlags) {
		coreList := experiments.SweepPowersOfTwo(fl.cores)
		windows := experiments.ScaleWindows()
		for _, k := range []workload.Kind{workload.Memcached, workload.Vacation} {
			section(fmt.Sprintf("Window-scheduler scale-out — SSP committed TPS on %s, windows %v cycles x %v cores (4 shards, 4 channels)",
				k, windows, coreList))
			fmt.Println(experiments.RenderGrid(experiments.ScaleSweep(sc, k, windows, coreList)))
		}
	}},
	{"serve", "open-loop serve latency (skew x load x cores, sync vs relaxed)", func(sc experiments.Scale, fl benchFlags) {
		coreList := experiments.SweepPowersOfTwo(fl.cores)
		skews := experiments.ServeSkews()
		loads := experiments.ServeLoads()
		const epoch = 100000 // ~10 txns per epoch, the epoch sweep's mid point
		section(fmt.Sprintf("Open-loop serve — SSP kv shards (1 journal shard, 4 channels), skews %v x loads %v%% x %v cores, epoch %d",
			skews, loads, coreList, epoch))
		fmt.Println(experiments.RenderServe(experiments.ServeSweep(sc, skews, loads, coreList, epoch)))
	}},
}

func experimentIDs() []string {
	ids := make([]string, len(experimentTable))
	for i, e := range experimentTable {
		ids[i] = e.id
	}
	return ids
}

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: sspbench [flags]\n\nexperiments (-exp):\n")
		for _, e := range experimentTable {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-11s %s\n", e.id, e.summary)
		}
		fmt.Fprintf(flag.CommandLine.Output(), "  %-11s every experiment above, in order\n\nflags:\n", "all")
		flag.PrintDefaults()
	}
	exp := flag.String("exp", "all", "experiment id (see -list)")
	scale := flag.String("scale", "small", "run scale: small | full")
	list := flag.Bool("list", false, "list experiment ids")
	ops := flag.Int("ops", 0, "override measured transactions per run")
	seed := flag.Uint64("seed", 0, "override RNG seed")
	cores := flag.Int("cores", 4, "max cores for the scaling sweeps (one goroutine each)")
	channels := flag.Int("channels", 8, "max memory channels for -exp channels; fixed channel count for -exp journal/crossshard")
	shards := flag.Int("shards", 4, "max SSP journal shards for -exp journal; fixed count for -exp crossshard")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation (heap) profile to this file on exit")
	flag.Parse()

	if *list {
		for _, e := range experimentTable {
			fmt.Printf("%-11s %s\n", e.id, e.summary)
		}
		fmt.Printf("%-11s every experiment above, in order\n", "all")
		return
	}

	if *channels < 1 || *channels > ssp.MaxChannels {
		fmt.Fprintf(os.Stderr, "-channels %d out of range [1,%d]\n", *channels, ssp.MaxChannels)
		os.Exit(2)
	}
	if *shards < 1 || *shards > ssp.MaxJournalShards {
		fmt.Fprintf(os.Stderr, "-shards %d out of range [1,%d]\n", *shards, ssp.MaxJournalShards)
		os.Exit(2)
	}
	if *cores < 1 {
		fmt.Fprintf(os.Stderr, "-cores must be at least 1\n")
		os.Exit(2)
	}

	var sc experiments.Scale
	switch *scale {
	case "small":
		sc = experiments.SmallScale()
	case "full":
		sc = experiments.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}
	if *ops > 0 {
		sc.Ops = *ops
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	// Profiling hooks: -cpuprofile covers the experiment run (started here,
	// stopped before the memory profile is written); -memprofile snapshots
	// the heap after a final GC. Inspect with `go tool pprof`.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "-cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "-cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			if *cpuprofile != "" {
				pprof.StopCPUProfile() // idempotent; order the profiles
			}
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "-memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	fl := benchFlags{cores: *cores, channels: *channels, shards: *shards}
	run := func(e experiment) {
		start := time.Now()
		e.run(sc, fl)
		fmt.Printf("[%s done in %.1fs]\n\n", e.id, time.Since(start).Seconds())
	}

	if *exp == "all" {
		for _, e := range experimentTable {
			run(e)
		}
		return
	}
	for _, e := range experimentTable {
		if e.id == *exp {
			run(e)
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown experiment %q (known: %s, all; try -list)\n", *exp, strings.Join(experimentIDs(), " "))
	os.Exit(2)
}

func section(title string) {
	fmt.Println(title)
	for range title {
		fmt.Print("=")
	}
	fmt.Println()
}
