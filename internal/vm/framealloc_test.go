package vm

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/memsim"
)

// listFrameAlloc is the reference model of FrameAlloc's allocation order:
// the pool as one explicit stack of frame indices, built in full, with
// FreeCold inserting at the bottom. FrameAlloc must hand out the same frame
// at every step of any operation sequence.
type listFrameAlloc struct {
	layout Layout
	free   []int
	used   []bool
}

func newListFrameAlloc(l Layout) *listFrameAlloc {
	fa := &listFrameAlloc{layout: l, used: make([]bool, l.Frames)}
	fa.reset()
	return fa
}

func (fa *listFrameAlloc) reset() {
	fa.free = fa.free[:0]
	for i := fa.layout.Frames - 1; i >= 0; i-- {
		fa.used[i] = false
		fa.free = append(fa.free, i)
	}
}

// alloc returns ok=false where FrameAlloc panics with an exhausted pool.
func (fa *listFrameAlloc) alloc() (pa memsim.PAddr, ok bool) {
	for len(fa.free) > 0 {
		idx := fa.free[len(fa.free)-1]
		fa.free = fa.free[:len(fa.free)-1]
		if !fa.used[idx] {
			fa.used[idx] = true
			return fa.layout.FrameAddr(idx), true
		}
	}
	return 0, false
}

func (fa *listFrameAlloc) freeHot(pa memsim.PAddr) {
	idx := fa.layout.FrameIndex(pa)
	fa.used[idx] = false
	fa.free = append(fa.free, idx)
}

func (fa *listFrameAlloc) freeCold(pa memsim.PAddr) {
	idx := fa.layout.FrameIndex(pa)
	fa.used[idx] = false
	fa.free = append([]int{idx}, fa.free...)
}

func (fa *listFrameAlloc) reserve(pa memsim.PAddr) { fa.used[fa.layout.FrameIndex(pa)] = true }

func (fa *listFrameAlloc) inUse() int {
	n := 0
	for _, u := range fa.used {
		if u {
			n++
		}
	}
	return n
}

// panics reports whether fn panicked.
func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// Randomised differential test: Alloc, Free, FreeCold, reserve and Rebuild
// in any interleaving — including recovery's Rebuild from a page table, frees
// of reserved frames that leave a frame listed twice, and runs into an
// exhausted pool — give the allocation sequence of the reference model.
func TestFrameAllocMatchesListModel(t *testing.T) {
	mem, l, _ := testEnv(t)
	for seed := uint64(1); seed <= 30; seed++ {
		l.Frames = 8 + int(seed)*3 // small pools reach the cold queue and exhaustion
		rng := engine.NewRNG(seed)
		fa, ref := NewFrameAlloc(l), newListFrameAlloc(l)
		var held []memsim.PAddr // frames in use, in both
		drop := func(i int) memsim.PAddr {
			pa := held[i]
			held[i] = held[len(held)-1]
			held = held[:len(held)-1]
			return pa
		}
		var trace []string
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(100); {
			case op < 45:
				want, ok := ref.alloc()
				if !ok {
					if !panics(func() { fa.Alloc() }) {
						t.Fatalf("seed %d step %d: Alloc on an exhausted pool did not panic", seed, step)
					}
					// The model dropped its stale entries on the way down; an
					// exhausted FrameAlloc did too.
					continue
				}
				got := fa.Alloc()
				trace = append(trace, fmt.Sprintf("alloc=%d", l.FrameIndex(got)))
				if got != want {
					t.Fatalf("seed %d step %d: Alloc returned frame %d, the list model %d\nlast ops: %v",
						seed, step, l.FrameIndex(got), l.FrameIndex(want), trace[max(0, len(trace)-12):])
				}
				held = append(held, got)
			case op < 65 && len(held) > 0:
				pa := drop(rng.Intn(len(held)))
				trace = append(trace, fmt.Sprintf("free(%d)", l.FrameIndex(pa)))
				fa.Free(pa)
				ref.freeHot(pa)
			case op < 85 && len(held) > 0:
				pa := drop(rng.Intn(len(held)))
				trace = append(trace, fmt.Sprintf("freecold(%d)", l.FrameIndex(pa)))
				fa.FreeCold(pa)
				ref.freeCold(pa)
			case op < 97:
				pa := l.FrameAddr(rng.Intn(l.Frames))
				if ref.used[l.FrameIndex(pa)] {
					if !panics(func() { fa.reserve(pa) }) {
						t.Fatalf("seed %d step %d: reserving an in-use frame did not panic", seed, step)
					}
					continue
				}
				trace = append(trace, fmt.Sprintf("reserve(%d)", l.FrameIndex(pa)))
				fa.reserve(pa)
				ref.reserve(pa)
				held = append(held, pa)
			default:
				// Recovery's rebuild: everything free but what the page
				// table maps.
				trace = append(trace, "rebuild")
				ref.reset()
				held = held[:0]
				pt := NewPageTable(mem, l)
				for i := rng.Intn(l.Frames / 2); i > 0; i-- {
					pa := l.FrameAddr(rng.Intn(l.Frames))
					if !ref.used[l.FrameIndex(pa)] {
						pt.SetMirror(len(held), pa)
						ref.reserve(pa)
						held = append(held, pa)
					}
				}
				if err := fa.Rebuild(pt, 0, 0, nil); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
			if got, want := fa.InUse(), ref.inUse(); got != want || fa.FreeCount() != l.Frames-want {
				t.Fatalf("seed %d step %d: InUse %d FreeCount %d, the list model has %d in use of %d", seed, step, got, fa.FreeCount(), want, l.Frames)
			}
		}
	}
}
