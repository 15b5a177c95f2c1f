package cachesim

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
)

// churn runs a fixed two-core script of stores and loads over `lines` lines
// (several times the L3), so that every level holds dirty and clean lines in
// sets that were first filled in no particular order. It returns the latest
// completion time and the lines it touched.
func churn(h *Hierarchy, mem *memsim.Memory, lines int) (engine.Cycles, []memsim.PAddr) {
	rng := engine.NewRNG(7)
	var at [2]engine.Cycles
	seen := map[memsim.PAddr]bool{}
	var touched []memsim.PAddr
	buf := make([]byte, 8)
	for op := 0; op < 3*lines; op++ {
		core := rng.Intn(2)
		pa := nv(mem, uint64(lines-1-rng.Intn(lines))*memsim.LineBytes)
		if !seen[pa] {
			seen[pa] = true
			touched = append(touched, pa)
		}
		if rng.Intn(10) < 7 {
			at[core] = h.Store(core, pa, []byte{byte(op), byte(op >> 8), byte(core + 1)}, at[core])
		} else {
			at[core] = h.Load(core, pa, buf, at[core])
		}
	}
	return engine.MaxCycles(at[0], at[1]), touched
}

// After DropAll nothing is cached: every line the script touched is absent
// from every level (a load of it goes all the way to memory), the checker is
// satisfied with the empty hierarchy, and the hierarchy fills again.
func TestDropAllEmptiesEverySet(t *testing.T) {
	h, mem, st := testSetup(2)
	_, touched := churn(h, mem, 1024)
	if msg := h.DebugValidate(); msg != "" {
		t.Fatalf("before DropAll: %s", msg)
	}
	h.DropAll()
	if msg := h.DebugValidate(); msg != "" {
		t.Fatalf("after DropAll: %s", msg)
	}
	for _, pa := range touched {
		if h.Present(0, pa) || h.Present(1, pa) || h.DirtyAnywhere(pa) {
			t.Fatalf("line %#x still cached after DropAll", pa)
		}
	}
	// Loads of distinct lines, fewer than any level holds: each misses to
	// memory once, none evicts another.
	probe := touched[:8]
	durable, got := make([]byte, 8), make([]byte, 8)
	for _, pa := range probe {
		reads := st.NVRAMReadLines
		h.Load(0, pa, got, 0)
		if st.NVRAMReadLines != reads+1 {
			t.Fatalf("load of %#x after DropAll did not miss to memory", pa)
		}
		mem.Peek(pa, durable)
		if string(got) != string(durable) {
			t.Fatalf("load of %#x after DropAll returned %v, memory holds %v", pa, got, durable)
		}
	}
	for i, pa := range probe {
		h.Store(1, pa, []byte{byte(0xA0 + i)}, 0)
	}
	for i, pa := range probe {
		h.Load(0, pa, got[:1], 0)
		if got[0] != byte(0xA0+i) {
			t.Fatalf("refilled line %#x reads %#x, want %#x", pa, got[0], 0xA0+i)
		}
	}
	if msg := h.DebugValidate(); msg != "" {
		t.Fatalf("after refill: %s", msg)
	}
}

// FlushAll issues timed write-backs, so the order it visits lines in is part
// of the simulated result: L1 then L2 of each core then L3, each level's sets
// by index and ways in order, whatever order the sets were first filled in.
// The L2 and L3 here span several directory slots. The golden values are the
// eagerly allocated sets x ways array's (commit 2437403) on this script. The
// stats hash covers the Stats field names as well as the values, so deleting
// a counter re-records it; the other values must not move.
func TestFlushAllOrderGolden(t *testing.T) {
	_, mem, st := testSetup(2)
	h := New(Config{
		Cores:   2,
		L1Bytes: 1 << 10, L1Ways: 2, L1Lat: 4,
		L2Bytes: 16 << 10, L2Ways: 2, L2Lat: 6,
		L3Bytes: 64 << 10, L3Ways: 4, L3Lat: 27,
		CohLat: 20,
	}, mem, st)
	if len(h.l2[0].dir) < 2 || len(h.l3.dir) < 4 {
		t.Fatalf("L2 and L3 directories have %d and %d slots; the test wants several", len(h.l2[0].dir), len(h.l3.dir))
	}
	at, _ := churn(h, mem, 4096)
	done := h.FlushAll(at, stats.CatData)
	if msg := h.DebugValidate(); msg != "" {
		t.Fatal(msg)
	}
	got := fmt.Sprintf("done=%d writes=%d rowhits=%d stats=%x image=%x", done, st.NVRAMWriteLines, st.RowHits,
		sha256.Sum256([]byte(fmt.Sprintf("%+v", *st))), sha256.Sum256(mem.NVRAMImage().Bytes()))
	const want = "done=1428349 writes=7445 rowhits=4321 stats=63583d8aacdbf5e6ccd29ff38e2331001fe6e5991d5e5a39f0472bdc989c51d8 image=e6523310eadf0494e43901bd197b916d019ce92de8a2fec5335bdba4fa219e93"
	if got != want {
		t.Fatalf("FlushAll on the fixed script:\n got %s\nwant %s", got, want)
	}
}

// chunks counts l's allocated data chunks.
func (l *level) chunks() int {
	n := 0
	for _, c := range l.data {
		if c != nil {
			n++
		}
	}
	return n
}

// The L3 keeps bytes only for its dirty lines: loads that fill it clean
// allocate no data chunk and read memory's values, and one dirty line
// spilled from a private cache allocates exactly one chunk.
func TestCleanL3FillsAllocateNoData(t *testing.T) {
	h, mem, _ := testSetup(1)
	const lines = 128 // two lines in each of the L3's 64 sets, twice the L2's
	buf := make([]byte, 1)
	for i := uint64(0); i < lines; i++ {
		mem.Poke(nv(mem, i*memsim.LineBytes), []byte{byte(i + 1)})
	}
	for rep := 0; rep < 2; rep++ { // the second pass hits the L3 for the lines the L2 lost
		for i := uint64(0); i < lines; i++ {
			if h.Load(0, nv(mem, i*memsim.LineBytes), buf, 0); buf[0] != byte(i+1) {
				t.Fatalf("pass %d: line %d reads %#x, want %#x", rep, i, buf[0], i+1)
			}
		}
	}
	if h.l3.held != lines || h.st.CacheHits[2] == 0 {
		t.Fatalf("the L3 holds %d lines after %d hits; the test wants %d and some hits", h.l3.held, h.st.CacheHits[2], lines)
	}
	if n := h.l3.chunks(); n != 0 {
		t.Fatalf("%d clean L3 lines allocated %d data chunks, want 0", lines, n)
	}

	// Line 0 is stored, then pushed out of the L1 and L2 by loads of lines
	// that share their sets (every 16th line), until it spills dirty into
	// the L3 line that holds it clean.
	pa := nv(mem, 0)
	h.Store(0, pa, []byte{0xD1}, 0)
	c3 := h.l3.peek(uint64(pa >> memsim.LineShift))
	for i := uint64(1); !h.l3.isDirty(c3); i++ {
		if i > 8 {
			t.Fatal("line 0 never spilled dirty into the L3")
		}
		h.Load(0, nv(mem, (lines+16*i)*memsim.LineBytes), buf, 0)
	}
	if h.Present(0, pa) {
		t.Fatal("the spilled line is still cached privately")
	}
	if n := h.l3.chunks(); n != 1 {
		t.Fatalf("one dirty spill left %d data chunks, want 1", n)
	}
	if h.Load(0, pa, buf, 0); buf[0] != 0xD1 {
		t.Fatalf("the spilled line reads %#x, want 0xd1", buf[0])
	}
	if msg := h.DebugValidate(); msg != "" {
		t.Fatal(msg)
	}
}
