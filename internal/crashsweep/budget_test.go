package crashsweep

import (
	"fmt"
	"runtime"
	"testing"

	"repro/ssp"
)

// scriptWrites counts the durable NVRAM writes of sc's uncrashed run: its
// trap points are 0 through that count.
func scriptWrites(cfg ssp.Config, sc Script) int64 {
	m := ssp.MustNew(cfg)
	setup := m.Stats().NVRAMWriteLines
	RunScript(m, sc)
	m.Drain()
	return int64(m.Stats().NVRAMWriteLines - setup)
}

// Building the sweep's machine costs what a fresh machine holds, not its
// capacities: no eagerly formatted SSP slot array, no TLB entry array or
// index sized to the STLB's reach, no cache data for the ways of a set that
// holds one line, no L3 data for clean lines, no way predictor sized to a
// level's capacity, no whole NVRAM page for a few lines written to it, no
// banks of a memory it never accessed. ssp.New(Config(b)) allocates at most
// 34 KiB on every backend (26.9-28.4 KiB measured, 27.7-29.8 KiB under the
// race detector). The budget was 35 KiB while every L3 way filled had data
// (27.9-29.4 KiB, 28.7-30.8 under the race detector), and 38 KiB while a
// per-page wear counter in every NVRAM directory chunk made it 30.0-31.5
// KiB; with 4 KiB pages, full-size predictors and
// 64-bit tags it allocated 68-73 KiB, with a block-major cache data pool
// and a capacity-sized TLB index 104-109 KiB, and with the slot array and
// TLB entries built to capacity SSP's build allocated 301 KiB.
func TestMachineNewAllocationBudget(t *testing.T) {
	const budget, builds = 34 << 10, 16
	for _, b := range ssp.Backends() {
		cfg := Config(b)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for i := 0; i < builds; i++ {
			ssp.MustNew(cfg)
		}
		runtime.ReadMemStats(&ms)
		mean := (ms.TotalAlloc - before) / builds
		t.Logf("%v: New allocates %.1f KiB", b, float64(mean)/1024)
		if mean > budget {
			t.Errorf("%v: New allocates %.1f KiB, over the %d KiB budget", b, float64(mean)/1024, budget>>10)
		}
	}
}

// A trap point pays for what its script touched: the heap bytes its run,
// recovery and verification allocate on the sweep's machine stay within 23
// KiB (14.6-20.4 KiB measured, 15.0-21.4 KiB under the race detector, since
// the L3 keeps no data for clean lines; 15.2-21.0 and 15.6-22.0 before; the
// budget was 24 KiB while 16.3-21.2 KiB were measured, and 27.6-32.3 KiB
// were with NVRAM backed by whole 4 KiB pages and 64-bit cache tags). A
// capacity-sized structure — a full-history occupancy ring per bank, a
// page-table-sized read buffer, a per-slot scratch — would break that
// budget, and so would a cache level allocating every way of each set it
// touches (50-54 KiB per point). The objects a point allocates are bounded
// too: 60.6, 59.2 and 85.3 per point are measured on UNDO-LOG, REDO-LOG and
// SSP (62.0, 60.5 and 86.5 while clean L3 fills allocated data chunks),
// where map write sets, per-transaction oracle slices and SSP recovery's
// per-shard and per-entry allocations made 97, 112 and 111. The race
// detector's instrumentation allocates more objects (70.2, 68.8 and 111.5),
// so that bound holds in plain builds only. Machine construction is
// outside both bounds, as it is outside the benchmark's measured window.
func TestTrapPointAllocationBudget(t *testing.T) {
	const budget = 23 << 10
	objectBound := map[ssp.Backend]float64{ssp.UndoLog: 66, ssp.RedoLog: 66, ssp.SSP: 92}
	sc := MakeScript(1000003, 12)
	for _, b := range ssp.Backends() {
		cfg := Config(b)
		writes := scriptWrites(cfg, sc)
		var total, objects uint64
		var ms runtime.MemStats
		for k := int64(0); k <= writes; k++ {
			m := ssp.MustNew(cfg)
			runtime.ReadMemStats(&ms)
			before, mallocs := ms.TotalAlloc, ms.Mallocs
			m.Mem().SetWriteTrap(k)
			committed, boundary := RunScript(m, sc)
			m.Mem().SetWriteTrap(-1)
			if err := m.Recover(); err != nil {
				t.Fatalf("%v trap %d: recovery: %v", b, k, err)
			}
			m.Heap().EnsureMapped(nil, 1, sc.lastPage(1))
			if err := Verify(m, committed, boundary); err != nil {
				t.Fatalf("%v trap %d: %v", b, k, err)
			}
			runtime.ReadMemStats(&ms)
			total += ms.TotalAlloc - before
			objects += ms.Mallocs - mallocs
		}
		mean := total / uint64(writes+1)
		t.Logf("%v: %d trap points, %.1f KiB and %.1f objects allocated per point", b, writes+1, float64(mean)/1024, float64(objects)/float64(writes+1))
		if mean > budget {
			t.Errorf("%v: a trap point allocates %.1f KiB on average, over the %d KiB budget", b, float64(mean)/1024, budget>>10)
		}
		if perPoint := float64(objects) / float64(writes+1); !raceBuild && perPoint > objectBound[b] {
			t.Errorf("%v: a trap point allocates %.1f objects on average, over the bound of %.0f", b, perPoint, objectBound[b])
		}
	}
}

// The oracles read in address order, never in map order: the boundary
// transaction is probed at its lowest address, and a failure names the
// lowest wrong address — the same verdict and the same line on every call.
func TestVerifyReadsInAddressOrder(t *testing.T) {
	m := ssp.MustNew(Config(ssp.SSP))
	committed, _ := RunScript(m, MakeScript(7, 8))
	m.Drain()
	vas := sortedAddrs(committed)
	if len(vas) < 2 {
		t.Fatalf("script committed %d addresses; the test needs two", len(vas))
	}

	// A torn boundary: its lower address holds the boundary value, its upper
	// one does not. Probed at the lower address it applied, so the upper
	// one is the tear; probed at the upper one it would pass as not applied.
	m.Heap().EnsureMapped(nil, 7, 7) // a page the script never writes
	lo := uint64(ssp.HeapBase + 7*ssp.PageBytes)
	hi := lo + ssp.LineBytes
	c := m.Core(0)
	c.Begin()
	c.Store64(lo, 1111)
	c.Store64(hi, 2222)
	c.Commit()
	boundary := map[uint64]uint64{lo: 1111, hi: 9999}
	want := fmt.Sprintf("boundary txn torn (applied=true): %#x got 2222 want 9999", hi)
	for rep := 0; rep < 20; rep++ {
		if err := Verify(m, committed, boundary); err == nil || err.Error() != want {
			t.Fatalf("call %d: Verify of a torn boundary returned %v, want %q", rep, err, want)
		}
	}

	// Every committed address wrong: the lowest one is named.
	c.Begin()
	for _, va := range vas {
		c.Store64(va, 0xDEAD)
	}
	c.Commit()
	want = fmt.Sprintf("addr %#x: got %d want %d", vas[0], 0xDEAD, committed[vas[0]])
	for rep := 0; rep < 20; rep++ {
		if err := Verify(m, committed, nil); err == nil || err.Error() != want {
			t.Fatalf("call %d: Verify of corrupted state returned %v, want %q", rep, err, want)
		}
	}
}
