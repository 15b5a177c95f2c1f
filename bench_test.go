// Host benchmarks: the wall-clock nanoseconds and heap bytes the simulator
// spends on one transaction, one machine build and one power cycle. The
// simulated figures are TestPaperFigures' (paper_test.go); the repository
// benchmark (benchmark/) owns end-to-end host performance.
package repro_test

import (
	"strconv"
	"testing"

	"repro/ssp"
	"repro/ssp/pds"
)

// BenchmarkTxnPath is the host cost of a minimal two-store transaction on
// each design; TestPaperFigures holds the first one's simulated cycles.
func BenchmarkTxnPath(b *testing.B) {
	for _, backend := range ssp.Backends() {
		b.Run(backend.String(), func(b *testing.B) {
			c := txnPathMachine(backend).Core(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				txnPathTxn(c, i)
			}
		})
	}
}

// txnPathMachine returns a 1-core machine of backend with heap pages 1 and 2
// mapped.
func txnPathMachine(backend ssp.Backend) *ssp.Machine {
	m := ssp.MustNew(ssp.Config{Backend: backend, Cores: 1})
	m.Heap().EnsureMapped(nil, 1, 2)
	return m
}

// txnPathTxn commits transaction i of the path: two stores to two lines of
// one of the two mapped pages.
func txnPathTxn(c *ssp.Core, i int) {
	page := ssp.HeapBase + uint64(1+(i&1))*ssp.PageBytes
	c.Begin()
	c.Store64(page+uint64(i%32)*64, uint64(i))
	c.Store64(page+uint64(32+i%32)*64, uint64(i)) // second line, same page
	c.Commit()
}

// BenchmarkMachineNew is the host cost of building a machine — what every
// trap point of a crash sweep and every cell of an experiment grid pays
// first: ssp.New with the SSP backend at the sweeps' 32 MB and at the paper's
// Table 2 machine's 192 MB of NVRAM. The allocation budgets are
// ssp.TestMachineAllocationBudget and
// crashsweep.TestMachineNewAllocationBudget.
func BenchmarkMachineNew(b *testing.B) {
	for _, mb := range []int{32, 192} {
		b.Run(strconv.Itoa(mb)+"MB", func(b *testing.B) {
			cfg := ssp.Config{Backend: ssp.SSP, Cores: 1, NVRAMMB: mb, DRAMMB: 4, MaxHeapPages: 36 << 10}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				machineSink = ssp.MustNew(cfg)
			}
		})
	}
}

// BenchmarkCrashRestore is the host cost of a power cycle through an image:
// Crash of the paper's Table 2 machine (192 MB of NVRAM, SSP) and Restore
// from that image, with the machine holding a 2 000-key B-tree (192MB) or a
// 4 MiB pds.Array with every data page written (Array4MB); building the
// machine and filling it is left out. The allocation budgets are
// ssp.TestCrashRestoreFollowsTouchedState and ssp.TestCrashRestoreSharesPages.
func BenchmarkCrashRestore(b *testing.B) {
	cfg := ssp.Config{Backend: ssp.SSP, Cores: 1, NVRAMMB: 192, DRAMMB: 4, MaxHeapPages: 36 << 10}
	for _, w := range []struct {
		name string
		fill func(m *ssp.Machine)
	}{{"192MB", fillBTree}, {"Array4MB", fillArray}} {
		b.Run(w.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m := ssp.MustNew(cfg)
				w.fill(m)
				b.StartTimer()
				m2, err := ssp.Restore(cfg, m.Crash())
				if err != nil {
					b.Fatal(err)
				}
				machineSink = m2
			}
		})
	}
}

// fillBTree inserts 2 000 keys into a B-tree rooted at slot 0.
func fillBTree(m *ssp.Machine) {
	const keys = 2000
	c := m.Core(0)
	c.Begin()
	bt := pds.CreateBTree(c, m.Heap())
	m.SetRoot(c, 0, bt.Head())
	c.Commit()
	for k := uint64(0); k < keys; k++ {
		c.Begin()
		bt.Insert(c, k*7919%keys, k)
		c.Commit()
	}
}

// fillArray creates a 4 MiB array rooted at slot 0 and writes one element of
// each of its 1 024 data pages, eight pages per transaction.
func fillArray(m *ssp.Machine) {
	const elems, perPage, pagesPerTxn = 4 << 20 / 8, ssp.PageBytes / 8, 8
	c := m.Core(0)
	c.Begin()
	a := pds.CreateArray(c, m.Heap(), elems)
	m.SetRoot(c, 0, a.Head())
	c.Commit()
	for i := 0; i < elems; i += perPage * pagesPerTxn {
		c.Begin()
		for j := i; j < min(elems, i+perPage*pagesPerTxn); j += perPage {
			a.Set(c, j, uint64(j)+1)
		}
		c.Commit()
	}
	m.Drain()
}

// machineSink keeps BenchmarkMachineNew's and BenchmarkCrashRestore's
// machines reachable.
var machineSink *ssp.Machine
