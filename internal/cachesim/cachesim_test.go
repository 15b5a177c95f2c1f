package cachesim

import (
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
)

func testSetup(cores int) (*Hierarchy, *memsim.Memory, *stats.Stats) {
	st := &stats.Stats{}
	mcfg := memsim.DefaultConfig()
	mcfg.DRAMBytes = 1 << 20
	mcfg.NVRAMBytes = 4 << 20
	mem := memsim.New(mcfg, st)
	ccfg := Config{
		Cores:   cores,
		L1Bytes: 1 << 10, L1Ways: 2, L1Lat: 4,
		L2Bytes: 4 << 10, L2Ways: 4, L2Lat: 6,
		L3Bytes: 16 << 10, L3Ways: 4, L3Lat: 27,
		CohLat: 20,
	}
	return New(ccfg, mem, st), mem, st
}

func nv(mem *memsim.Memory, off uint64) memsim.PAddr {
	return mem.Config().NVRAMBase + memsim.PAddr(off)
}

func TestLoadMissThenHit(t *testing.T) {
	h, mem, st := testSetup(1)
	pa := nv(mem, 0)
	mem.Poke(pa, []byte{0xAA})
	buf := make([]byte, 1)
	d1 := h.Load(0, pa, buf, 0)
	if buf[0] != 0xAA {
		t.Fatal("load returned wrong data")
	}
	if st.CacheMisses[0] != 1 || st.NVRAMReadLines != 1 {
		t.Errorf("expected one L1 miss and one memory read: %+v", st)
	}
	d2 := h.Load(0, pa, buf, d1)
	if st.CacheHits[0] != 1 {
		t.Error("second load should hit L1")
	}
	if d2 != d1+4 {
		t.Errorf("L1 hit latency: %d", d2-d1)
	}
}

func TestStoreIsVolatileUntilFlush(t *testing.T) {
	h, mem, _ := testSetup(1)
	pa := nv(mem, 64)
	h.Store(0, pa, []byte{0x42}, 0)
	durable := make([]byte, 1)
	mem.Peek(pa, durable)
	if durable[0] != 0 {
		t.Fatal("store leaked to durable memory before flush")
	}
	_, wrote := h.Flush(0, pa, 0, stats.CatData)
	if !wrote {
		t.Fatal("flush reported no write")
	}
	mem.Peek(pa, durable)
	if durable[0] != 0x42 {
		t.Fatal("flush did not persist data")
	}
	// Flushing again: line is clean, no write.
	_, wrote = h.Flush(0, pa, 0, stats.CatData)
	if wrote {
		t.Error("second flush wrote a clean line")
	}
	// Cached copy retained and readable.
	buf := make([]byte, 1)
	h.Load(0, pa, buf, 0)
	if buf[0] != 0x42 {
		t.Error("flush dropped the cached copy")
	}
}

func TestSubLineStorePreservesRest(t *testing.T) {
	h, mem, _ := testSetup(1)
	pa := nv(mem, 128)
	full := make([]byte, 64)
	for i := range full {
		full[i] = byte(i)
	}
	mem.Poke(pa, full)
	h.Store(0, pa+8, []byte{0xFF}, 0)
	buf := make([]byte, 64)
	h.Load(0, pa, buf[:1], 0)
	h.Load(0, pa+8, buf[8:9], 0)
	h.Load(0, pa+9, buf[9:10], 0)
	if buf[0] != 0 || buf[8] != 0xFF || buf[9] != 9 {
		t.Errorf("write-allocate merged wrong: %v", buf[:10])
	}
}

func TestCrossCoreCoherence(t *testing.T) {
	h, mem, st := testSetup(2)
	pa := nv(mem, 256)
	h.Store(0, pa, []byte{0x01}, 0)
	buf := make([]byte, 1)
	h.Load(1, pa, buf, 0)
	if buf[0] != 0x01 {
		t.Fatal("core 1 did not observe core 0's write")
	}
	// Core 1 writes: core 0's copy must be invalidated.
	h.Store(1, pa, []byte{0x02}, 0)
	if st.Invalidations == 0 {
		t.Error("no invalidation counted")
	}
	h.Load(0, pa, buf, 0)
	if buf[0] != 0x02 {
		t.Fatal("core 0 read stale data after remote write")
	}
}

func TestDropAllLosesDirtyData(t *testing.T) {
	h, mem, _ := testSetup(1)
	pa := nv(mem, 512)
	mem.Poke(pa, []byte{0x10})
	h.Store(0, pa, []byte{0x99}, 0)
	h.DropAll()
	buf := make([]byte, 1)
	h.Load(0, pa, buf, 0)
	if buf[0] != 0x10 {
		t.Errorf("after crash, expected committed 0x10, got %#x", buf[0])
	}
}

func TestRetagMovesDataWithoutWriteback(t *testing.T) {
	h, mem, st := testSetup(1)
	p0 := nv(mem, 0x10000)
	p1 := nv(mem, 0x20000)
	mem.Poke(p0, []byte{0x33}) // committed data on P0

	// Load committed data, then retag to the shadow address.
	buf := make([]byte, 1)
	h.Load(0, p0, buf, 0)
	before := st.NVRAMWriteLines
	h.Retag(0, p0, p1, 0)
	if st.NVRAMWriteLines != before {
		t.Fatal("retag of a clean line wrote to NVRAM")
	}

	// The data now lives under the P1 tag.
	h.Load(0, p1, buf, 0)
	if buf[0] != 0x33 {
		t.Fatalf("retagged line lost data: %#x", buf[0])
	}
	// Overwrite via P1, flush: P0's durable bytes stay committed.
	h.Store(0, p1, []byte{0x44}, 0)
	h.Flush(0, p1, 0, stats.CatData)
	d := make([]byte, 1)
	mem.Peek(p0, d)
	if d[0] != 0x33 {
		t.Error("retag+flush overwrote committed data in place")
	}
	mem.Peek(p1, d)
	if d[0] != 0x44 {
		t.Error("speculative data not persisted at shadow address")
	}
}

func TestRetagFlushesDirtyNonTxLineFirst(t *testing.T) {
	h, mem, _ := testSetup(1)
	p0 := nv(mem, 0x11000)
	p1 := nv(mem, 0x21000)
	// A non-transactional store dirties P0's line.
	h.Store(0, p0, []byte{0x77}, 0)
	h.Retag(0, p0, p1, 0)
	d := make([]byte, 1)
	mem.Peek(p0, d)
	if d[0] != 0x77 {
		t.Error("dirty pre-transaction data lost by retag")
	}
	buf := make([]byte, 1)
	h.Load(0, p1, buf, 0)
	if buf[0] != 0x77 {
		t.Error("retagged line lost the flushed value")
	}
}

func TestRetagDiscardsStaleTargetCopies(t *testing.T) {
	h, mem, _ := testSetup(2)
	p0 := nv(mem, 0x12000)
	p1 := nv(mem, 0x22000)
	mem.Poke(p0, []byte{0x01})
	mem.Poke(p1, []byte{0x0F}) // stale dead version at shadow address
	buf := make([]byte, 1)
	h.Load(1, p1, buf, 0) // core 1 caches the stale shadow line
	h.Load(0, p0, buf, 0)
	h.Retag(0, p0, p1, 0)
	h.Load(1, p1, buf, 0) // must see the retagged data, not its stale copy
	if buf[0] != 0x01 {
		t.Errorf("stale shadow copy survived retag: %#x", buf[0])
	}
}

func TestInvalidateLineDropsSpeculativeData(t *testing.T) {
	h, mem, _ := testSetup(1)
	p0 := nv(mem, 0x13000)
	p1 := nv(mem, 0x23000)
	mem.Poke(p0, []byte{0x55})
	buf := make([]byte, 1)
	h.Load(0, p0, buf, 0)
	h.Retag(0, p0, p1, 0)
	h.Store(0, p1, []byte{0x66}, 0)
	h.InvalidateLine(p1) // abort path
	d := make([]byte, 1)
	mem.Peek(p1, d)
	if d[0] != 0 {
		t.Error("aborted speculative data reached NVRAM")
	}
	h.Load(0, p0, buf, 0)
	if buf[0] != 0x55 {
		t.Error("committed data lost after abort")
	}
}

func TestWritebackInvalidate(t *testing.T) {
	h, mem, _ := testSetup(1)
	pa := nv(mem, 0x14000)
	h.Store(0, pa, []byte{0x88}, 0)
	_, wrote := h.WritebackInvalidate(pa, 0, stats.CatConsolidation)
	if !wrote {
		t.Fatal("dirty line not written back")
	}
	d := make([]byte, 1)
	mem.Peek(pa, d)
	if d[0] != 0x88 {
		t.Fatal("writeback lost data")
	}
	if h.Present(0, pa) {
		t.Error("line still cached after invalidate")
	}
}

func TestEvictionWritesBack(t *testing.T) {
	h, mem, _ := testSetup(1)
	// Dirty many distinct lines mapping to the same sets until the
	// hierarchy must spill to memory, then verify data integrity via loads.
	const n = 2048 // lines; well beyond L1+L2+L3 capacity (21.5KiB total)
	for i := 0; i < n; i++ {
		pa := nv(mem, uint64(i)*64)
		h.Store(0, pa, []byte{byte(i), byte(i >> 8)}, 0)
	}
	for i := 0; i < n; i++ {
		pa := nv(mem, uint64(i)*64)
		buf := make([]byte, 2)
		h.Load(0, pa, buf, 0)
		if buf[0] != byte(i) || buf[1] != byte(i>>8) {
			t.Fatalf("line %d corrupted through evictions: %v", i, buf)
		}
	}
}

func TestFlushAll(t *testing.T) {
	h, mem, _ := testSetup(2)
	for i := 0; i < 100; i++ {
		pa := nv(mem, uint64(i)*64)
		h.Store(i%2, pa, []byte{byte(i + 1)}, 0)
	}
	h.FlushAll(0, stats.CatData)
	for i := 0; i < 100; i++ {
		d := make([]byte, 1)
		mem.Peek(nv(mem, uint64(i)*64), d)
		if d[0] != byte(i+1) {
			t.Fatalf("line %d not flushed", i)
		}
	}
}

func TestLatencyOrdering(t *testing.T) {
	h, mem, _ := testSetup(1)
	pa := nv(mem, 0x15000)
	buf := make([]byte, 1)
	tMiss := h.Load(0, pa, buf, 0)
	tHit := h.Load(0, pa, buf, 0) // from 0 again
	if tHit >= tMiss {
		t.Errorf("hit (%d) should be cheaper than miss (%d)", tHit, tMiss)
	}
}

// cleanL3Matches reports whether every clean L3 line that no private owner
// shadows reads, through memory, the byte ref holds for it (at line index
// (pa-base)/64): such a line keeps no bytes of its own, and a hit on it
// returns that value.
func cleanL3Matches(t *testing.T, h *Hierarchy, base memsim.PAddr, ref []byte) bool {
	var d [memsim.LineBytes]byte
	return h.l3.eachHeld(func(c int) bool {
		la := h.l3.tag(c)
		if h.l3.isDirty(c) || h.dir.get(la).owner >= 0 {
			return true
		}
		pa := memsim.PAddr(la) << memsim.LineShift
		h.mem.Peek(pa, d[:])
		if li := int(pa-base) / memsim.LineBytes; d[0] != ref[li] {
			t.Logf("clean L3 line %d reads %#x through memory, want %#x", li, d[0], ref[li])
			return false
		}
		return true
	})
}

// Property test: under random loads/stores/flushes/retags across cores, a
// load always returns the value of the most recent store to that address
// (single-writer interleaving, which is how the simulator drives it), and
// so does every clean L3 line read through memory.
func TestHierarchyMatchesReferenceModel(t *testing.T) {
	f := func(seed uint64) bool {
		h, mem, _ := testSetup(3)
		rng := engine.NewRNG(seed)
		const lines = 96
		ref := make([]byte, lines)
		base := mem.Config().NVRAMBase
		for op := 0; op < 2000; op++ {
			li := rng.Intn(lines)
			pa := base + memsim.PAddr(li*64)
			core := rng.Intn(3)
			switch rng.Intn(4) {
			case 0: // store
				v := byte(rng.Intn(255) + 1)
				h.Store(core, pa, []byte{v}, 0)
				ref[li] = v
			case 1, 2: // load
				buf := make([]byte, 1)
				h.Load(core, pa, buf, 0)
				if buf[0] != ref[li] {
					t.Logf("line %d: got %#x want %#x (op %d)", li, buf[0], ref[li], op)
					return false
				}
			case 3: // flush
				h.Flush(core, pa, 0, stats.CatData)
			}
			if !cleanL3Matches(t, h, base, ref) {
				t.Logf("after op %d", op)
				return false
			}
		}
		// Flush everything; durable image must equal the reference.
		h.FlushAll(0, stats.CatData)
		for li := 0; li < lines; li++ {
			d := make([]byte, 1)
			mem.Peek(base+memsim.PAddr(li*64), d)
			if d[0] != ref[li] {
				t.Logf("durable line %d: got %#x want %#x", li, d[0], ref[li])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
