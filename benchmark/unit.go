package main

import (
	"runtime"
	"sort"
	"time"

	"repro/internal/buffercache"
	"repro/internal/cachesim"
	"repro/internal/engine"
	"repro/internal/loadgen"
	"repro/internal/memsim"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/tlbsim"
	"repro/internal/wal"
	"repro/ssp"
)

// This file holds the U-tagged per-layer metrics: the host cost of one call
// into a layer, from a microloop that drives a standalone instance of that
// layer through its exported functions. They run once per traced run. A unit
// cost times a count (counters.go) is an ESTIMATE of the layer's share of a
// transaction's host time; the stack table prints measured spans, and the
// two are never forced to add up.

// unitTarget is how long each microloop runs once its iteration count has
// been scaled up, testing.Benchmark style. A variable so that the package's
// test can shorten it.
var unitTarget = 40 * time.Millisecond

// microloop calls fn with growing n until one call takes unitTarget, and
// reports that call's host ns and heap allocations per iteration. fn returns
// the time its measured part took (it may exclude its own re-priming).
func microloop(fn func(n int) time.Duration) (nsPerOp, allocsPerOp float64) {
	n := 256
	for {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := fn(n)
		runtime.ReadMemStats(&after)
		if d >= unitTarget || n >= 1<<28 {
			return float64(d.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
		}
		grow := 2.0
		if d > 0 {
			grow = 1.2 * float64(unitTarget) / float64(d)
		}
		if grow > 100 {
			grow = 100
		}
		if grow < 2 {
			grow = 2
		}
		n = int(float64(n) * grow)
	}
}

// timed wraps a plain loop body as a microloop function.
func timed(body func(n int)) func(n int) time.Duration {
	return func(n int) time.Duration {
		t0 := time.Now()
		body(n)
		return time.Since(t0)
	}
}

// medianMS runs build k times, collecting garbage (not returning it to the
// OS) between runs so later builds reuse and re-zero freed spans the way a
// sweep that builds machine after machine does, and reports the median in
// milliseconds.
func medianMS(k int, build func()) float64 {
	v := make([]float64, k)
	for i := range v {
		t0 := time.Now()
		build()
		v[i] = float64(time.Since(t0)) / 1e6
		runtime.GC()
	}
	sort.Float64s(v)
	return v[k/2]
}

// timeMachineNew is the H metric machine.new_ms for one workload's machine
// configuration.
func timeMachineNew(cfg ssp.Config) float64 {
	return medianMS(3, func() { ssp.MustNew(cfg) })
}

func unitMem(mb uint64) (*memsim.Memory, memsim.Config) {
	cfg := memsim.DefaultConfig()
	cfg.NVRAMBytes = mb << 20
	cfg.DRAMBytes = 4 << 20
	return memsim.New(cfg, &stats.Stats{}), cfg
}

// unitCosts runs every microloop and returns the U metrics. allocs/op is
// printed beside each for the reader; only ns/op is a declared metric.
func unitCosts(x *runCtx) metricSet {
	out := metricSet{}
	x.logf("\nunit costs (standalone layer instances, auto-scaled iteration counts)\n")
	run := func(name string, fn func(n int) time.Duration) float64 {
		ns, allocs := microloop(fn)
		out[name] = ns
		x.logf("  %-32s %10.1f ns/op %8.2f allocs/op\n", name, ns, allocs)
		return ns
	}

	// tlbsim: the Table 2 hierarchy (64-entry L1 DTLB, 1024-entry STLB).
	{
		t := tlbsim.NewTwoLevel(64, 1024, &stats.Stats{})
		for v := 0; v < 32; v++ {
			t.Insert(tlbsim.VPN(v), memsim.PAddr(v)<<memsim.PageShift)
		}
		run("tlbsim.lookup_hit_host_ns", timed(func(n int) {
			for i := 0; i < n; i++ {
				t.Lookup(tlbsim.VPN(i & 31))
			}
		}))
		next := tlbsim.VPN(1 << 20)
		run("tlbsim.miss_insert_host_ns", timed(func(n int) {
			for i := 0; i < n; i++ {
				// A fresh page every time: miss both levels, then install,
				// evicting through L1 -> STLB -> out once both are full.
				t.Lookup(next)
				t.Insert(next, memsim.PAddr(next)<<memsim.PageShift)
				next++
			}
		}))
	}

	// cachesim over a bare 32 MB memory, Table 2 geometry, one core.
	{
		mem, mcfg := unitMem(32)
		h := cachesim.New(cachesim.DefaultConfig(1), mem, &stats.Stats{})
		base := mcfg.NVRAMBase
		var buf [8]byte
		var at engine.Cycles
		run("cachesim.load_l1hit_host_ns", timed(func(n int) {
			for i := 0; i < n; i++ {
				at = h.Load(0, base+memsim.PAddr(i&7)*memsim.LineBytes, buf[:], at)
			}
		}))
		run("cachesim.store_hit_host_ns", timed(func(n int) {
			for i := 0; i < n; i++ {
				at = h.Store(0, base+memsim.PAddr(i&7)*memsim.LineBytes, buf[:], at)
			}
		}))
		// A cyclic sweep over 24 MiB — twice the L3 — misses every level.
		const sweepLines = (24 << 20) / memsim.LineBytes
		line := 0
		run("cachesim.load_miss_host_ns", timed(func(n int) {
			for i := 0; i < n; i++ {
				at = h.Load(0, base+memsim.PAddr(line)*memsim.LineBytes, buf[:], at)
				if line++; line == sweepLines {
					line = 0
				}
			}
		}))
		// Flush of a dirty line: dirty a batch untimed, time only the clwbs.
		run("cachesim.flush_dirty_host_ns", func(n int) time.Duration {
			var d time.Duration
			const batch = 256
			for done := 0; done < n; done += batch {
				for j := 0; j < batch; j++ {
					at = h.Store(0, base+memsim.PAddr(j)*memsim.LineBytes, buf[:], at)
				}
				t0 := time.Now()
				for j := 0; j < batch; j++ {
					at, _ = h.Flush(0, base+memsim.PAddr(j)*memsim.LineBytes, at, stats.CatData)
				}
				d += time.Since(t0)
			}
			return d
		})
		// Retag: SSP's line remap between a page's two frames, over 64 line
		// pairs so each `from` has long since left L1 when it comes round.
		const pairs = 64
		frameB := base + 1<<20
		run("cachesim.retag_host_ns", timed(func(n int) {
			for i := 0; i < n; i++ {
				off := memsim.PAddr(i%pairs) * memsim.LineBytes
				from, to := base+off, frameB+off
				if (i/pairs)&1 == 1 {
					from, to = to, from
				}
				at = h.Retag(0, from, to, at)
			}
		}))
	}

	// buffercache: 64 DRAM frames over the memory's NVRAM range. The tier is
	// off in all five workloads; these are the "before" of a DRAM-tier issue.
	{
		mem, mcfg := unitMem(32)
		bc := buffercache.New(buffercache.Config{Frames: 64, Lo: mcfg.NVRAMBase, Hi: mcfg.NVRAMBase + memsim.PAddr(mcfg.NVRAMBytes)}, mem, stats.NewSharded(1))
		var buf [memsim.LineBytes]byte
		var at engine.Cycles
		at = bc.ReadLine(0, mcfg.NVRAMBase, buf[:], at)
		run("buffercache.read_hit_host_ns", timed(func(n int) {
			for i := 0; i < n; i++ {
				at = bc.ReadLine(0, mcfg.NVRAMBase, buf[:], at)
			}
		}))
		pages := int(mcfg.NVRAMBytes / memsim.PageBytes)
		page := 0
		run("buffercache.read_miss_host_ns", timed(func(n int) {
			for i := 0; i < n; i++ {
				// A new page each time: miss, evict a frame, fill from NVRAM.
				at = bc.ReadLine(0, mcfg.NVRAMBase+memsim.PAddr(page)*memsim.PageBytes, buf[:], at)
				if page++; page == pages {
					page = 0
				}
			}
		}))
	}

	// memsim: line reads and writes striding over 32 MB, and construction.
	{
		mem, mcfg := unitMem(32)
		lines := int(mcfg.NVRAMBytes / memsim.LineBytes)
		var buf [memsim.LineBytes]byte
		var at engine.Cycles
		line := 0
		step := func() memsim.PAddr {
			pa := mcfg.NVRAMBase + memsim.PAddr(line)*memsim.LineBytes
			if line += 67; line >= lines {
				line -= lines
			}
			return pa
		}
		run("memsim.readline_host_ns", timed(func(n int) {
			for i := 0; i < n; i++ {
				at = mem.ReadLine(step(), buf[:], at)
			}
		}))
		run("memsim.writeline_host_ns", timed(func(n int) {
			for i := 0; i < n; i++ {
				at = mem.WriteLine(step(), buf[:], at, stats.CatData)
			}
		}))
		for _, sz := range []struct {
			name string
			mb   uint64
		}{{"memsim.new_192mb_ms", 192}, {"memsim.new_32mb_ms", 32}} {
			out[sz.name] = medianMS(5, func() { unitMem(sz.mb) })
			x.logf("  %-32s %10.3f ms (median of 5)\n", sz.name, out[sz.name])
		}
	}

	// wal: 24-byte journal-sized records into a 64 KiB ring.
	{
		mem, mcfg := unitMem(32)
		const capacity = 64 << 10
		s := wal.NewStream(mem, mcfg.NVRAMBase, capacity, stats.CatMetaJournal)
		payload := make([]byte, 8)
		var at engine.Cycles
		tid := uint32(1)
		appendOne := func() {
			if s.Used()+64 > capacity {
				s.Reset()
			}
			at = s.Append(wal.Record{TID: tid, Kind: 1, Payload: payload}, at)
			tid++
		}
		appendNS := run("wal.append_host_ns", timed(func(n int) {
			for i := 0; i < n; i++ {
				appendOne()
			}
		}))
		// A flush is only real work after an append, so time the pair and
		// take the append back out.
		pairNS, _ := microloop(timed(func(n int) {
			for i := 0; i < n; i++ {
				appendOne()
				at = s.Flush(at)
			}
		}))
		out["wal.flush_host_ns"] = pairNS - appendNS
		x.logf("  %-32s %10.1f ns/op (append+flush pair %.1f minus append)\n", "wal.flush_host_ns", pairNS-appendNS, pairNS)
	}

	// loadgen: the serve workloads' op stream.
	{
		s := loadgen.New(loadgen.Config{Keys: x.sz.TCPKeys, Skew: 0.99, Seed: x.seed})
		run("loadgen.next_host_ns", timed(func(n int) {
			for i := 0; i < n; i++ {
				s.Next()
			}
		}))
	}

	// server: build the serve-tcp-2c server and close it again.
	out["server.new_ms"] = medianMS(3, func() {
		s, err := server.New(serveTCPConfig(x))
		if err == nil {
			s.Close()
		}
	})
	x.logf("  %-32s %10.3f ms (New + Close, median of 3)\n", "server.new_ms", out["server.new_ms"])
	return out
}
