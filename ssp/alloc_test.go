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
// 0.6 MiB (32-38 KiB measured) and New + a dozen transactions + power
// failure + in-place recovery under 16 MiB (66-87 KiB measured), on every
// backend. An eager make of a
// capacity-sized array (the NVRAM bytes are 192 MiB, the L3 lines 17 MiB) or
// an eagerly formatted SSP slot array (0.4 MiB) cannot hide in that.
func TestMachineAllocationBudget(t *testing.T) {
	const MiB = 1 << 20
	for _, b := range Backends() {
		cfg := Config{Backend: b, Cores: 1, NVRAMMB: 192, DRAMMB: 4, MaxHeapPages: 36 << 10}
		var m *Machine
		if got := allocated(func() { m = MustNew(cfg) }); got > 6*MiB/10 {
			t.Errorf("%v: New allocated %.2f MiB, budget 0.6 MiB", b, float64(got)/MiB)
		} else {
			t.Logf("%v: New allocated %.2f MiB", b, float64(got)/MiB)
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

// A cross-shard commit reuses its core's buffers, as a single-shard one
// does: on one core with four journal shards, a BeginGlobal section writing
// four pages whose slots belong to four different shards commits without
// allocating, and so does a Begin section over the same pages. The machine
// is warmed up first: the memory's occupancy rings grow with the simulated
// span until it passes their history bound, and the first checkpoints
// write slot pages NVRAM never held.
func TestGlobalCommitAllocatesNothing(t *testing.T) {
	m := MustNew(Config{Backend: SSP, Cores: 1, JournalShards: 4})
	m.Heap().EnsureMapped(nil, 1, 4)
	c := m.Core(0)
	var n uint64
	section := func(begin func()) func() {
		return func() {
			begin()
			for p := uint64(1); p <= 4; p++ {
				c.Store64(HeapBase+p*PageBytes+n%64*LineBytes, n)
			}
			c.Commit()
			n++
		}
	}
	global := section(c.BeginGlobal)
	for range 2000 {
		global()
	}
	before := m.Stats().GlobalCommits
	if a := testing.AllocsPerRun(200, global); a != 0 {
		t.Errorf("BeginGlobal commit: %.2f allocations per commit", a)
	}
	if got := m.Stats().GlobalCommits - before; got != 201 {
		t.Fatalf("%d of 201 BeginGlobal sections committed across shards", got)
	}
	if a := testing.AllocsPerRun(200, section(c.Begin)); a != 0 {
		t.Errorf("Begin commit: %.2f allocations per commit", a)
	}
}
