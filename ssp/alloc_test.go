package ssp

import (
	"runtime"
	"testing"
)

// allocated returns the heap bytes fn allocated. The package's tests do not
// run in parallel, so the process-wide counter is fn's.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// Building and power-cycling a machine costs what the run touched, not what
// was configured: on the paper's Table 2 machine (192 MB of NVRAM, 12 MB L3;
// the sizes the benchmark's tree/sps/serve workloads use) New allocates under
// 8 MiB and New + a dozen transactions + power failure + in-place recovery
// under 16 MiB, on every backend. An eager make of a capacity-sized array
// (the NVRAM bytes are 192 MiB, the L3 lines 17 MiB) cannot hide in that.
func TestMachineAllocationBudget(t *testing.T) {
	const MiB = 1 << 20
	for _, b := range Backends() {
		cfg := Config{Backend: b, Cores: 1, NVRAMMB: 192, DRAMMB: 4, MaxHeapPages: 36 << 10}
		var m *Machine
		if got := allocated(func() { m = MustNew(cfg) }); got > 8*MiB {
			t.Errorf("%v: New allocated %.1f MiB, budget 8 MiB", b, float64(got)/MiB)
		}

		// Power fails on a write trap inside the last commit and the machine
		// recovers in place, as the trap sweeps do. (Crash + Restore has its
		// own budget: TestCrashRestoreFollowsTouchedState.)
		got := allocated(func() {
			m = MustNew(cfg)
			m.Heap().EnsureMapped(nil, 1, 5)
			c := m.Core(0)
			for i := 0; i < 12; i++ {
				if i == 11 {
					m.Mem().SetWriteTrap(1)
				}
				c.Begin()
				for j := 0; j < 4; j++ {
					c.Store64(HeapBase+uint64(1+(i+j)%5)*PageBytes+uint64(i*64), uint64(i+1))
				}
				c.Commit()
			}
			if !m.Mem().PoweredOff() {
				t.Fatalf("%v: the write trap did not fire", b)
			}
			m.Mem().SetWriteTrap(-1)
			if err := m.Recover(); err != nil {
				t.Fatalf("%v: %v", b, err)
			}
			m.Heap().EnsureMapped(nil, 1, 5)
			if v := c.Load64(HeapBase + 1*PageBytes); v != 1 {
				t.Fatalf("%v: first transaction's store reads %d after recovery", b, v)
			}
		})
		if got > 16*MiB {
			t.Errorf("%v: New + 12 txns + power failure + Recover allocated %.1f MiB, budget 16 MiB", b, float64(got)/MiB)
		} else {
			t.Logf("%v: New + 12 txns + power failure + Recover allocated %.2f MiB", b, float64(got)/MiB)
		}
	}
}
