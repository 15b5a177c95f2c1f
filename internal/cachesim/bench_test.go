package cachesim

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
)

// The miss-path benchmarks run the Table 2 hierarchy (one core) over a bare
// 128 MiB memory. Each reports, beside ns/op, the set scans per operation
// summed over the levels (see level.scans). Profile one with
//
//	go test -run '^$' -bench RetagFreshPage -cpuprofile cpu.prof ./internal/cachesim

// benchHierarchy builds the Table 2 hierarchy for one core over the default
// memory.
func benchHierarchy() (*Hierarchy, memsim.PAddr) {
	st := &stats.Stats{}
	mcfg := memsim.DefaultConfig()
	return New(DefaultConfig(1), memsim.New(mcfg, st), st), mcfg.NVRAMBase
}

// scans is the number of set scans h's levels have made: L1 and L2 summed
// over the cores, and L3.
func (h *Hierarchy) scans() [3]int {
	n := [3]int{2: h.l3.scans}
	for i := range h.l1 {
		n[0] += h.l1[i].scans
		n[1] += h.l2[i].scans
	}
	return n
}

// scansSince is how many set scans h has made since it had made s.
func (h *Hierarchy) scansSince(s [3]int) int {
	n := h.scans()
	return n[0] + n[1] + n[2] - s[0] - s[1] - s[2]
}

// sweepLines is a cyclic sweep over 24 MiB, twice the L3: every access of
// it misses every level.
const sweepLines = (24 << 20) / memsim.LineBytes

// benchSweep times op over a cyclic sweep of sweepLines lines, after one
// untimed pass that materialises every set and fills every level.
func benchSweep(b *testing.B, op func(h *Hierarchy, pa memsim.PAddr, at engine.Cycles) engine.Cycles) {
	h, base := benchHierarchy()
	var at engine.Cycles
	for i := 0; i < sweepLines; i++ {
		at = op(h, base+memsim.PAddr(i)*memsim.LineBytes, at)
	}
	scans := h.scans()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at = op(h, base+memsim.PAddr(i%sweepLines)*memsim.LineBytes, at)
	}
	b.ReportMetric(float64(h.scansSince(scans))/float64(b.N), "scans/op")
}

// BenchmarkLoadMiss is a load of a line no level holds, whose victims are
// clean: the shape of the repository benchmark's cachesim.load_miss_host_ns.
func BenchmarkLoadMiss(b *testing.B) {
	var buf [8]byte
	benchSweep(b, func(h *Hierarchy, pa memsim.PAddr, at engine.Cycles) engine.Cycles {
		return h.Load(0, pa, buf[:], at)
	})
}

// BenchmarkStoreMissDirty is a store to a line no level holds, whose victims
// are dirty at every level: each store spills down the whole chain and
// writes a line back to memory.
func BenchmarkStoreMissDirty(b *testing.B) {
	var buf [8]byte
	benchSweep(b, func(h *Hierarchy, pa memsim.PAddr, at engine.Cycles) engine.Cycles {
		return h.Store(0, pa, buf[:], at)
	})
}

// BenchmarkRetagFreshPage retags every line of pages whose committed frame
// was never written, page after page, and flushes each page's lines once all
// are retagged: the shape of SSP initialising an array a line per store,
// one page per transaction. The committed frames cycle through 32 MiB, the
// shadow frames through another 32 MiB.
func BenchmarkRetagFreshPage(b *testing.B) {
	h, base := benchHierarchy()
	const (
		linesPerPage = memsim.PageBytes / memsim.LineBytes
		spanLines    = (32 << 20) / memsim.LineBytes
	)
	shadow := base + 32<<20
	var at engine.Cycles
	retag := func(i int) {
		off := memsim.PAddr(i%spanLines) * memsim.LineBytes
		at = h.Retag(0, base+off, shadow+off, at)
		if i%linesPerPage == linesPerPage-1 {
			page := off &^ (memsim.PageBytes - 1)
			for l := memsim.PAddr(0); l < memsim.PageBytes; l += memsim.LineBytes {
				at, _ = h.Flush(0, shadow+page+l, at, stats.CatData)
			}
		}
	}
	for i := 0; i < spanLines/2; i++ {
		retag(i)
	}
	scans := h.scans()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		retag(spanLines/2 + i)
	}
	b.ReportMetric(float64(h.scansSince(scans))/float64(b.N), "scans/op")
}
