package machine

import "testing"

// A serial load whose TLB and L1 both hit, and a store to a line already in
// the open section's write set, allocate nothing: the guard against a map, a
// per-access buffer or a per-store write-set record creeping back onto the
// hit path.
func TestHitPathAllocatesNothing(t *testing.T) {
	m := New(testConfig(SSP, 1))
	c := m.Core(0)
	m.Heap().EnsureMapped(nil, 1, 1)
	va := heapVA(1, 128)

	c.Begin()
	c.Store64(va, 1)
	c.Load64(va)
	if n := testing.AllocsPerRun(1000, func() { c.Load64(va) }); n != 0 {
		t.Errorf("Load64 hit: %.2f allocations per call", n)
	}
	if n := testing.AllocsPerRun(1000, func() { c.Store64(va, 2) }); n != 0 {
		t.Errorf("Store64 to a line in the write set: %.2f allocations per call", n)
	}
	c.Commit()
}
