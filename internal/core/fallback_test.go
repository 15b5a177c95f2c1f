package core

import (
	"encoding/binary"
	"math/bits"
	"slices"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/txn"
	"repro/internal/wal"
)

// fbModel is the fall-back write set the per-core log writer replaced: a
// map from each logged line to its first pre-image, its keys sorted at
// every commit and abort, beside the records in the order they were
// appended.
type fbModel struct {
	imgs     map[memsim.PAddr][memsim.LineBytes]byte
	appended []memsim.PAddr
}

// log records la's pre-image img unless la is already logged.
func (m *fbModel) log(la memsim.PAddr, img [memsim.LineBytes]byte) bool {
	if _, ok := m.imgs[la]; ok {
		return false
	}
	m.imgs[la] = img
	m.appended = append(m.appended, la)
	return true
}

func (m *fbModel) sorted() []memsim.PAddr {
	out := make([]memsim.PAddr, 0, len(m.imgs))
	for la := range m.imgs {
		out = append(out, la)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TestFallbackLogMatchesMapModel drives SSP through write-set-buffer
// overflow with seeded random stores on several cores — transitions from
// speculative state, first and repeated stores on the fall-back path,
// commits, aborts and power failures, with one-line and four-line sub-page
// units — beside the map write set the fall-back used to keep. Before every
// commit and abort the fall-back's write set must list the model's lines in
// the model's sorted order with the model's pre-images, and the core's log
// must hold the model's lines and images in append order. An abort must
// leave each line at its model image, a power failure must roll each
// interrupted fall-back line back to it in NVRAM, and UndoRecords must
// count the model's records.
func TestFallbackLogMatchesMapModel(t *testing.T) {
	const cores, pagesPerCore = 2, 5
	for _, sub := range []int{1, 4} {
		for _, seed := range []uint64{1, 2, 0xC0FFEE} {
			cfg := DefaultConfig()
			cfg.Entries, cfg.ResidentEntries = 64, 64
			cfg.WSBEntries = 2
			cfg.SubPageLines = sub
			env, s := sizedEnv(t, envSize{cores: cores, tlb: 8, heapPages: 512, slots: 64, nvramMB: 24}, cfg)
			for vpn := 0; vpn < cores*pagesPerCore; vpn++ {
				mapPage(env, vpn)
			}
			models := make([]fbModel, cores)
			open := make([]bool, cores)
			resetModel := func(c int) {
				models[c] = fbModel{imgs: map[memsim.PAddr][memsim.LineBytes]byte{}}
				open[c] = false
			}
			for c := range cores {
				resetModel(c)
			}
			var records uint64
			peek := func(la memsim.PAddr) (img [memsim.LineBytes]byte) {
				env.Caches.DebugPeek(la, img[:])
				return img
			}

			// store makes one store on core c, feeding the model the lines a
			// transition and the store itself log, with their images before
			// the store.
			store := func(step, c, vpn, line int, val byte) {
				v := va(vpn, line)
				var buf [8]byte
				s.Load(c, v, buf[:], 0) // the page's entry exists from here on
				ws := &s.ws[c]
				_, inWS := ws.find(vpn)
				was := s.fallback[c]
				transition := !was && !inWS && len(ws.vpns) >= cfg.WSBEntries
				if transition {
					for i, wv := range ws.vpns {
						meta := s.lookupMeta(wv)
						for m := ws.bits[i]; m != 0; m &= m - 1 {
							unit := bits.TrailingZeros64(m)
							cur := (meta.current >> uint(unit)) & 1
							begin, end := s.unitLines(unit)
							for li := begin; li < end; li++ {
								commLA := meta.lineAddr(li, cur^1)
								if models[c].log(commLA, peek(commLA)) {
									records++
								}
							}
						}
					}
				}
				if was || transition {
					meta := s.lookupMeta(vpn)
					la := meta.lineAddr(line, (meta.current>>uint(s.unitOf(line)))&1)
					if models[c].log(la, peek(la)) {
						records++
					}
				}
				s.Store(c, v, []byte{val, val, val, val, val, val, val, val}, 0)
				if s.fallback[c] != (was || transition) {
					t.Fatalf("sub %d seed %#x step %d core %d: fall-back %v, the model expected %v", sub, seed, step, c, s.fallback[c], was || transition)
				}
			}

			// same checks core c's fall-back write set and log against the
			// model at a commit or abort.
			same := func(step, c int) {
				t.Helper()
				ws := s.fbLog.Set(c)
				want := models[c].sorted()
				if !slices.Equal(ws.Lines, want) {
					t.Fatalf("sub %d seed %#x step %d core %d: write set %x, model %x", sub, seed, step, c, ws.Lines, want)
				}
				for i, la := range want {
					if ws.Vals[i] != models[c].imgs[la] {
						t.Fatalf("sub %d seed %#x step %d core %d: line %#x image differs from the model's", sub, seed, step, c, la)
					}
				}
				if !s.fallback[c] {
					return
				}
				recs := wal.Scan(env.Mem, env.Layout.LogBase[c], env.Layout.Cfg.LogBytes)
				if len(recs) != len(models[c].appended) {
					t.Fatalf("sub %d seed %#x step %d core %d: log holds %d records, model %d", sub, seed, step, c, len(recs), len(models[c].appended))
				}
				for i, r := range recs {
					la := models[c].appended[i]
					img := models[c].imgs[la]
					if r.Kind != txn.KindLine || memsim.PAddr(binary.LittleEndian.Uint64(r.Payload)) != la || string(r.Payload[8:]) != string(img[:]) {
						t.Fatalf("sub %d seed %#x step %d core %d: log record %d is not the model's line %#x and image", sub, seed, step, c, i, la)
					}
				}
			}

			rng := engine.NewRNG(seed)
			for step := 0; step < 2500; step++ {
				c := rng.Intn(cores)
				if !open[c] {
					s.Begin(c, 0)
					open[c] = true
				}
				first := c * pagesPerCore
				switch op := rng.Intn(100); {
				case op < 70:
					store(step, c, first+rng.Intn(pagesPerCore), rng.Intn(memsim.LinesPerPage/8), byte(rng.Intn(256)))
				case op < 85:
					same(step, c)
					s.Commit(c, 0)
					resetModel(c)
				case op < 97:
					same(step, c)
					fellBack := s.fallback[c]
					s.Abort(c, 0)
					if fellBack {
						for la, img := range models[c].imgs {
							if got := peek(la); got != img {
								t.Fatalf("sub %d seed %#x step %d core %d: abort left line %#x at %v, model image %v", sub, seed, step, c, la, got[:8], img[:8])
							}
						}
					}
					resetModel(c)
				default: // power failure
					// The in-place stores of open fall-back transactions reach
					// NVRAM first, as evictions may write them back, so
					// recovery must roll them back.
					interrupted := make([]fbModel, cores)
					for cc := range cores {
						if s.fallback[cc] {
							interrupted[cc] = models[cc]
							for _, la := range models[cc].appended {
								env.Caches.Flush(cc, la, 0, stats.CatData)
							}
						}
					}
					crashRecover(t, env, s)
					for cc := range cores {
						if n := len(s.fbLog.Set(cc).Lines); n != 0 || len(s.fbPages[cc]) != 0 || s.fallback[cc] {
							t.Fatalf("sub %d seed %#x step %d: core %d's fall-back state survived a crash (%d lines, %d pages)", sub, seed, step, cc, n, len(s.fbPages[cc]))
						}
						for la, img := range interrupted[cc].imgs {
							var got [memsim.LineBytes]byte
							env.Mem.Peek(la, got[:])
							if got != img {
								t.Fatalf("sub %d seed %#x step %d core %d: recovery left line %#x at %v, model image %v", sub, seed, step, cc, la, got[:8], img[:8])
							}
						}
						resetModel(cc)
					}
				}
			}
			if env.Stats.FallbackTxns == 0 {
				t.Fatalf("sub %d seed %#x: no transaction took the fall-back path", sub, seed)
			}
			if got := env.Stats.UndoRecords; got != records {
				t.Errorf("sub %d seed %#x: %d undo records counted, model %d", sub, seed, got, records)
			}
		}
	}
}
