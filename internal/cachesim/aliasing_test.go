package cachesim

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
)

// Regression test for the install-aliasing bug: Load's L2-hit path passed a
// pointer into the L2 entry to installL1; installL1's spill could then pick
// that very entry as its L2 victim when every other way in the set was
// tx-pinned (the victim policy skips speculative lines), clobbering the
// source before the copy. With page-frame-aligned SSP traffic, every page's
// line-0 maps to the same few sets, so red-black-tree workloads hit this
// reliably at scale (found via the Figure 5b reproduction run). The same
// eviction also dropped the core from the loaded line's sharers while L1
// took the line, so the load must leave the directory naming it.
func TestLoadL2HitSpillAliasingRegression(t *testing.T) {
	st := &stats.Stats{}
	mcfg := memsim.DefaultConfig()
	mcfg.DRAMBytes = 1 << 20
	mcfg.NVRAMBytes = 8 << 20
	mem := memsim.New(mcfg, st)
	// Tiny single-set caches so the scenario is forced: L1 = 2 ways,
	// L2 = 4 ways, all lines in one set.
	h := New(Config{
		Cores:   1,
		L1Bytes: 128, L1Ways: 2, L1Lat: 4,
		L2Bytes: 256, L2Ways: 4, L2Lat: 6,
		L3Bytes: 1 << 10, L3Ways: 4, L3Lat: 27,
		CohLat: 20,
	}, mem, st)

	base := mcfg.NVRAMBase
	la := func(i int) memsim.PAddr { return base + memsim.PAddr(i)*memsim.LineBytes }
	val := func(i int) byte { return byte(0x10 + i) }
	for i := 0; i < 12; i++ {
		mem.Poke(la(i), []byte{val(i)})
	}
	const target, renamed = 0, 4 // line T, and the line T's L1 copy is renamed to
	buf := make([]byte, 1)

	// Pin three L2 ways: stored lines marked speculative, as a redo-style
	// backend does. L1 ends holding the third and the second.
	for i := 1; i <= 3; i++ {
		h.Store(0, la(i), []byte{0xAA}, 0)
		h.MarkTx(0, la(i))
	}
	// T takes the fourth L2 way and an L1 way; a retag renames its L1 copy,
	// leaving T in L2 only and an L1 line that L2 does not hold. A hit on
	// the other L1 line makes the renamed one L1's victim.
	h.Load(0, la(target), buf, 0)
	h.Retag(0, la(target), la(renamed), 0)
	h.Load(0, la(3), buf, 0)

	l1, l2 := h.l1[0], h.l2[0]
	tl := uint64(la(target) >> memsim.LineShift)
	rl := uint64(la(renamed) >> memsim.LineShift)
	c2 := l2.peek(tl)
	switch {
	case c2 < 0:
		t.Fatal("precondition: T is not in L2")
	case l1.peek(tl) >= 0:
		t.Fatal("precondition: T is in L1")
	case l1.victim(tl) != l1.peek(rl) || l2.peek(rl) >= 0:
		t.Fatal("precondition: L1's victim is not the renamed line, which L2 does not hold")
	case l2.victim(rl) != c2:
		t.Fatal("precondition: the spill into L2 does not pick T's way")
	}

	// The L2-hit load must return T's value, leave the hierarchy coherent,
	// and keep returning it.
	h.Load(0, la(target), buf, 0)
	if buf[0] != val(target) {
		t.Fatalf("L2-hit load returned %#x, want %#x (source clobbered by spill)", buf[0], val(target))
	}
	if msg := h.DebugValidate(); msg != "" {
		t.Fatalf("coherence violation after the L2-hit load: %s", msg)
	}
	h.Load(0, la(target), buf, 0)
	if buf[0] != val(target) {
		t.Fatalf("reload returned %#x, want %#x", buf[0], val(target))
	}
	// The tx lines must still carry their speculative data, and the renamed
	// line T's.
	for i := 1; i <= 3; i++ {
		h.Load(0, la(i), buf, 0)
		if buf[0] != 0xAA {
			t.Fatalf("speculative line %d lost: %#x", i, buf[0])
		}
	}
	h.Load(0, la(renamed), buf, 0)
	if buf[0] != val(target) {
		t.Fatalf("renamed line reads %#x, want %#x", buf[0], val(target))
	}
	if msg := h.DebugValidate(); msg != "" {
		t.Fatalf("coherence violation: %s", msg)
	}
}

// TestRetagChurnTinyCaches hammers the exact traffic shape that exposed the
// bug: many pages' line-0 addresses (which share cache sets) alternately
// retagged, stored, flushed and re-read, with a reference model.
func TestRetagChurnTinyCaches(t *testing.T) {
	for _, seed := range []uint64{1, 7, 0xE0} {
		st := &stats.Stats{}
		mcfg := memsim.DefaultConfig()
		mcfg.DRAMBytes = 1 << 20
		mcfg.NVRAMBytes = 8 << 20
		mem := memsim.New(mcfg, st)
		h := New(Config{
			Cores:   1,
			L1Bytes: 512, L1Ways: 2, L1Lat: 4,
			L2Bytes: 1 << 10, L2Ways: 4, L2Lat: 6,
			L3Bytes: 4 << 10, L3Ways: 4, L3Lat: 27,
			CohLat: 20,
		}, mem, st)
		rng := engine.NewRNG(seed)
		base := mcfg.NVRAMBase

		// 24 "pages": page i has side-0 frame at i*2, side-1 at i*2+1;
		// only line 0 of each page is used, as the hot-header pattern does.
		const pages = 24
		side := make([]int, pages)
		ref := make([]byte, pages)
		frame := func(p, s int) memsim.PAddr {
			return base + memsim.PAddr(p*2+s)*memsim.PageBytes
		}
		buf := make([]byte, 1)
		for op := 0; op < 4000; op++ {
			p := rng.Intn(pages)
			switch rng.Intn(3) {
			case 0: // committed update: read, retag, store, flush
				h.Load(0, frame(p, side[p]), buf, 0)
				if buf[0] != ref[p] {
					t.Fatalf("seed %d op %d: page %d read %#x want %#x", seed, op, p, buf[0], ref[p])
				}
				from, to := frame(p, side[p]), frame(p, 1-side[p])
				h.Retag(0, from, to, 0)
				v := byte(rng.Intn(255) + 1)
				h.Store(0, to, []byte{v}, 0)
				h.Flush(0, to, 0, stats.CatData)
				ref[p] = v
				side[p] = 1 - side[p]
			case 1: // plain read
				h.Load(0, frame(p, side[p]), buf, 0)
				if buf[0] != ref[p] {
					t.Fatalf("seed %d op %d: page %d read %#x want %#x", seed, op, p, buf[0], ref[p])
				}
			case 2: // aborted update
				h.Load(0, frame(p, side[p]), buf, 0)
				h.Retag(0, frame(p, side[p]), frame(p, 1-side[p]), 0)
				h.Store(0, frame(p, 1-side[p]), []byte{0xEE}, 0)
				h.InvalidateLine(frame(p, 1-side[p]))
			}
		}
		for p := 0; p < pages; p++ {
			h.Load(0, frame(p, side[p]), buf, 0)
			if buf[0] != ref[p] {
				t.Fatalf("seed %d final: page %d read %#x want %#x", seed, p, buf[0], ref[p])
			}
		}
	}
}
