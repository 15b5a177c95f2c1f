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

// A trap point pays for what its script touched: the heap bytes its run,
// recovery and verification allocate on the sweep's machine stay within a
// budget that a capacity-sized structure — a full-history occupancy ring
// per bank, a page-table-sized read buffer, a per-slot scratch — would
// break. Machine construction is outside the budget, as it is outside the
// benchmark's measured window.
func TestTrapPointAllocationBudget(t *testing.T) {
	const budget = 64 << 10
	sc := MakeScript(1000003, 12)
	for _, b := range ssp.Backends() {
		cfg := Config(b)
		writes := scriptWrites(cfg, sc)
		var total uint64
		var ms runtime.MemStats
		for k := int64(0); k <= writes; k++ {
			m := ssp.MustNew(cfg)
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
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
		}
		mean := total / uint64(writes+1)
		t.Logf("%v: %d trap points, %.1f KiB allocated per point", b, writes+1, float64(mean)/1024)
		if mean > budget {
			t.Errorf("%v: a trap point allocates %.1f KiB on average, over the %d KiB budget", b, float64(mean)/1024, budget>>10)
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
