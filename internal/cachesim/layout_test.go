package cachesim

import (
	"fmt"
	"math/bits"
	"runtime"
	"testing"

	"repro/internal/engine"
	"repro/internal/memsim"
)

// blockPool is the reference model for a level's line data: the block-major
// pool the way-major chunks replaced, in which a block's first fill
// allocated data for all of its ways, eight blocks to a chunk. It
// is kept only to hold the level's data to it
// (TestLevelDataMatchesScanModel).
type blockPool struct {
	shift uint // log2 of the lines per pool chunk
	data  [][][memsim.LineBytes]byte
}

func newBlockPool(l *level) *blockPool {
	return &blockPool{shift: l.wbits + 3}
}

func (p *blockPool) line(i int) *[memsim.LineBytes]byte {
	for i>>p.shift >= len(p.data) {
		p.data = append(p.data, make([][memsim.LineBytes]byte, 1<<p.shift))
	}
	return &p.data[i>>p.shift][i&(1<<p.shift-1)]
}

// TestLevelDataMatchesScanModel drives a level with seeded random fills,
// in-place writes, merges, invalidations and resets, mirrors every data
// change into the block-major pool at the same line index, and after every
// operation requires each valid line's data to equal the pool's. The
// shapes cover a padded way stride, a modulo set index, and levels large
// enough to span several data groups and tag chunks. A data pointer taken
// from a valid line must stay that line's while other sets materialise.
func TestLevelDataMatchesScanModel(t *testing.T) {
	shapes := []struct{ bytes, ways int }{
		{32 << 10, 8},   // Table 2 L1: 64 sets
		{48 << 10, 3},   // 256 sets of 3 ways: stride 4
		{192 << 10, 16}, // 192 sets: modulo index, 16 ways
		{256 << 10, 8},  // Table 2 L2: 512 sets, 16 groups
	}
	for _, sh := range shapes {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%dKiB/%dway/seed%d", sh.bytes>>10, sh.ways, seed), func(t *testing.T) {
				l := newLevel(sh.bytes, sh.ways)
				pool := newBlockPool(l)
				rng := engine.NewRNG(seed)
				span := uint64(3 * sh.bytes / memsim.LineBytes)
				held, heldAt := (*[memsim.LineBytes]byte)(nil), -1
				var d [memsim.LineBytes]byte
				for op := 0; op < 20000; op++ {
					la := uint64(rng.Intn(int(span)))
					i := l.peek(la)
					for k := range d {
						d[k] = byte(rng.Intn(256))
					}
					switch r := rng.Intn(100); {
					case r < 50:
						if i < 0 {
							i = l.victim(la)
							l.fill(i, la, &d, rng.Intn(2) == 0, rng.Intn(4) == 0)
							*pool.line(i) = d
						}
					case r < 70:
						if i >= 0 {
							o := rng.Intn(memsim.LineBytes)
							l.line(i)[o] = d[0]
							pool.line(i)[o] = d[0]
						}
					case r < 80:
						if i >= 0 {
							dirty := rng.Intn(2) == 0
							l.merge(i, &d, dirty, false)
							if dirty {
								*pool.line(i) = d
							}
						}
					case r < 99:
						if i >= 0 {
							l.invalidate(i)
						}
					default:
						l.reset()
						heldAt = -1
					}
					if heldAt >= 0 && !l.valid(heldAt) {
						heldAt = -1
					}
					if heldAt >= 0 && l.line(heldAt) != held {
						t.Fatalf("op %d: line %d's data moved", op, heldAt)
					}
					if heldAt < 0 && i >= 0 && l.valid(i) {
						held, heldAt = l.line(i), i
					}
					l.eachValid(func(c int) bool {
						if *l.line(c) != *pool.line(c) {
							t.Fatalf("op %d: line %d (tag %#x) holds %x, the block-major pool %x", op, c, l.tag(c), l.line(c)[:8], pool.line(c)[:8])
						}
						return true
					})
				}
			})
		}
	}
}

// A sparse level allocates per line it holds, not per way of every set it
// touched: K lines filled clean into K distinct sets of the Table 2
// hierarchy's L3 (16 ways) allocate at most 176 B per line — 64 B of 32-bit
// tags (a set's ways share one block of them), the block's record, the
// set's directory chunk and the way predictor, and no data: the L3 keeps
// bytes only for dirty lines. 143 B measured; 207 B while every filled way
// had data (budget 256 B), 274 B with 64-bit tags, and the block-major pool
// allocated 1.6 KiB per line here, all 16 ways' data of every set.
func TestSparseLevelAllocatesPerFilledLine(t *testing.T) {
	const lines, budget = 256, 176
	h, base := benchHierarchy()
	l3, first := h.l3, uint64(base>>memsim.LineShift)
	var d [memsim.LineBytes]byte
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for k := uint64(0); k < lines; k++ {
		l3.fill(l3.victim(first+k), first+k, &d, false, false)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / lines
	t.Logf("%d lines in %d sets: %d B per line", lines, len(l3.blks), per)
	if len(l3.blks) != lines {
		t.Fatalf("the lines materialised %d sets, want %d", len(l3.blks), lines)
	}
	if per > budget {
		t.Errorf("%d lines in distinct L3 sets allocated %d B per line, budget %d", lines, per, budget)
	}
}

// A level's way predictor is as long as the lines it holds, rounded up to a
// power of two between predMin and predMax, and a doubling keeps every held
// line predicted: after each fill of 1 500 consecutive lines (distinct sets,
// distinct low address bits) into the Table 2 L3, a probe of each of the
// last predMax lines filled finds it without a scan.
func TestWayPredictorGrowsWithHeldLines(t *testing.T) {
	l := newLevel(12<<20, 16)
	var d [memsim.LineBytes]byte
	for k := uint64(0); k < 1500; k++ {
		l.fill(l.victim(k), k, &d, false, false)
		want := min(predMax, max(predMin, 1<<bits.Len(uint(l.held-1))))
		if len(l.pred) != want {
			t.Fatalf("%d lines held: a predictor of %d entries, want %d", l.held, len(l.pred), want)
		}
		if k&(k+1) != 0 && k != 1499 { // probe at each power of two and at the end
			continue
		}
		scans := l.scans
		for j := k + 1 - min(k+1, predMax); j <= k; j++ {
			if l.peek(j) < 0 {
				t.Fatalf("line %d not found after %d fills", j, k+1)
			}
		}
		if l.scans != scans {
			t.Fatalf("after %d fills, probing the last %d lines scanned %d sets", k+1, min(k+1, predMax), l.scans-scans)
		}
	}
}
