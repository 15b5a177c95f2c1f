package vm

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/memsim"
)

// listFrameAlloc is the reference model of FrameAlloc's allocation order:
// the pool as one explicit stack of frame indices, built in full, popped
// past the frames in use. FrameAlloc must hand out the same frame at every
// step of any operation sequence.
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

// Randomised differential test: Alloc, reserve and Rebuild in any
// interleaving — including recovery's Rebuild from a page table and runs
// into an exhausted pool — give the allocation sequence of the reference
// model.
func TestFrameAllocMatchesListModel(t *testing.T) {
	mem, l, _ := testEnv(t)
	for seed := uint64(1); seed <= 30; seed++ {
		l.Frames = 8 + int(seed)*3 // small pools reach exhaustion
		rng := engine.NewRNG(seed)
		fa, ref := NewFrameAlloc(l), newListFrameAlloc(l)
		var trace []string
		for step := 0; step < 4000; step++ {
			switch op := rng.Intn(100); {
			case op < 60:
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
			case op < 95:
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
			default:
				// Recovery's rebuild: everything free but what the page
				// table maps.
				trace = append(trace, "rebuild")
				ref.reset()
				pt := NewPageTable(mem, l)
				for vpn := rng.Intn(l.Frames / 2); vpn > 0; vpn-- {
					pa := l.FrameAddr(rng.Intn(l.Frames))
					if !ref.used[l.FrameIndex(pa)] {
						pt.SetMirror(vpn, pa)
						ref.reserve(pa)
					}
				}
				if err := fa.Rebuild(pt, 0, 0, nil); err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
			}
			if got, want := fa.InUse(), ref.inUse(); got != want {
				t.Fatalf("seed %d step %d: InUse %d, the list model has %d in use of %d", seed, step, got, want, l.Frames)
			}
		}
	}
}
