package logging

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/memsim"
)

// The write set the sorted slices replaced: a map per core, its keys sorted
// at every commit and abort. It is the reference model of
// TestWriteSetMatchesScanModel.
func sortedLines(m map[memsim.PAddr][memsim.LineBytes]byte) []memsim.PAddr {
	out := make([]memsim.PAddr, 0, len(m))
	for la := range m {
		out = append(out, la)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedSet(m map[memsim.PAddr]struct{}) []memsim.PAddr {
	out := make([]memsim.PAddr, 0, len(m))
	for la := range m {
		out = append(out, la)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestWriteSetMatchesScanModel drives UNDO-LOG and REDO-LOG with seeded
// random stores — repeated lines, wide write sets, aborts and crashes on
// several cores — beside the map write set each used to keep. Before every
// commit and abort the backend's write set must list the model's lines in
// the order the model's sort gives (the order commit flushes, REDO logs and
// abort restores or drops them), UNDO-LOG's images must be the model's, an
// abort must leave each line at its model image, and UndoRecords and
// RedoRecords must count the model's first stores.
func TestWriteSetMatchesScanModel(t *testing.T) {
	const cores, pagesPerCore = 3, 4
	for _, seed := range []uint64{1, 2, 3, 0xC0FFEE} {
		for _, undo := range []bool{true, false} {
			env := testEnv(t, cores)
			for vpn := 0; vpn < cores*pagesPerCore; vpn++ {
				mapPage(env, vpn)
			}
			var u *Undo
			var r *Redo
			var ws func(c int) []memsim.PAddr
			if undo {
				u = NewUndo(env)
				ws = func(c int) []memsim.PAddr { return u.old[c].lines }
			} else {
				r = NewRedo(env, DefaultRedoConfig())
				ws = func(c int) []memsim.PAddr { return r.wset[c].lines }
			}
			begin := func(c int) {
				if undo {
					u.Begin(c, 0)
				} else {
					r.Begin(c, 0)
				}
			}
			// Each core writes its own pages, so an abort's images are
			// exactly its model's.
			imgs := make([]map[memsim.PAddr][memsim.LineBytes]byte, cores) // UNDO-LOG's model
			sets := make([]map[memsim.PAddr]struct{}, cores)               // REDO-LOG's model
			open := make([]bool, cores)
			var records uint64
			resetModel := func(c int) {
				imgs[c] = map[memsim.PAddr][memsim.LineBytes]byte{}
				sets[c] = map[memsim.PAddr]struct{}{}
				open[c] = false
			}
			for c := 0; c < cores; c++ {
				resetModel(c)
			}
			store := func(c int, vpn, line int, val byte) {
				v := va(vpn, line*memsim.LineBytes+int(val%8)*8)
				pa, _ := env.PT.Lookup(vpn)
				la := memsim.LineAddr(pa + memsim.PAddr(line*memsim.LineBytes))
				if undo {
					if _, ok := imgs[c][la]; !ok {
						var img [memsim.LineBytes]byte
						env.Caches.DebugPeek(la, img[:])
						imgs[c][la] = img
						records++
					}
					u.Store(c, v, []byte{val, val, val, val, val, val, val, val}, 0)
				} else {
					if _, ok := sets[c][la]; !ok {
						sets[c][la] = struct{}{}
						records++
					}
					r.Store(c, v, []byte{val, val, val, val, val, val, val, val}, 0)
				}
			}
			// same checks the backend's write set against the model at a
			// commit or abort of core c.
			same := func(step, c int) {
				t.Helper()
				var want []memsim.PAddr
				if undo {
					want = sortedLines(imgs[c])
				} else {
					want = sortedSet(sets[c])
				}
				if got := ws(c); !slices.Equal(got, want) {
					t.Fatalf("seed %#x undo=%v step %d core %d: write set %x, model %x", seed, undo, step, c, got, want)
				}
				if undo {
					for i, la := range want {
						if u.old[c].vals[i] != imgs[c][la] {
							t.Fatalf("seed %#x step %d core %d: line %#x image differs from the model's", seed, step, c, la)
						}
					}
				}
			}
			rng := engine.NewRNG(seed)
			for step := 0; step < 3000; step++ {
				c := rng.Intn(cores)
				if !open[c] {
					begin(c)
					open[c] = true
				}
				first := c * pagesPerCore
				switch op := rng.Intn(100); {
				case op < 60: // a store, often to a line the set already holds
					if lines := ws(c); len(lines) > 0 && rng.Intn(3) == 0 {
						la := lines[rng.Intn(len(lines))]
						for vpn := first; vpn < first+pagesPerCore; vpn++ {
							if pa, _ := env.PT.Lookup(vpn); memsim.PageAddr(la) == pa {
								store(c, vpn, memsim.LineIndex(la), byte(rng.Intn(256)))
							}
						}
						continue
					}
					store(c, first+rng.Intn(pagesPerCore), rng.Intn(memsim.LinesPerPage), byte(rng.Intn(256)))
				case op < 64: // a wide write set, out of address order
					for j := 0; j < 40+rng.Intn(40); j++ {
						store(c, first+rng.Intn(pagesPerCore), rng.Intn(memsim.LinesPerPage), byte(j))
					}
				case op < 84:
					same(step, c)
					if undo {
						u.Commit(c, 0)
					} else {
						r.Commit(c, 0)
					}
					resetModel(c)
				case op < 97:
					same(step, c)
					if undo {
						u.Abort(c, 0)
						for la, img := range imgs[c] {
							var got [memsim.LineBytes]byte
							env.Caches.DebugPeek(la, got[:])
							if got != img {
								t.Fatalf("seed %#x step %d core %d: abort left line %#x at %v, model image %v", seed, step, c, la, got[:8], img[:8])
							}
						}
					} else {
						r.Abort(c, 0)
					}
					resetModel(c)
				default: // power failure
					env.Caches.DropAll()
					if undo {
						u.Crash()
						if err := u.Recover(); err != nil {
							t.Fatal(err)
						}
					} else {
						r.Crash()
						if err := r.Recover(); err != nil {
							t.Fatal(err)
						}
					}
					for cc := 0; cc < cores; cc++ {
						if len(ws(cc)) != 0 {
							t.Fatalf("seed %#x step %d: core %d's write set survived a crash: %x", seed, step, cc, ws(cc))
						}
						resetModel(cc)
					}
				}
			}
			got := env.Stats.RedoRecords
			if undo {
				got = env.Stats.UndoRecords
			}
			if got != records {
				t.Errorf("seed %#x undo=%v: %d log records counted, model %d", seed, undo, got, records)
			}
		}
	}
}
