package cachesim

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
)

// warmHierarchy is the Table 2 hierarchy for one core after a store sweep
// over sweepLines lines: every set of every level is materialised and full
// of dirty lines, and the way predictors point at the sweep's last lines.
// It returns the hierarchy, the first swept line and the time after it.
func warmHierarchy() (*Hierarchy, memsim.PAddr, engine.Cycles) {
	h, base := benchHierarchy()
	var at engine.Cycles
	var buf [8]byte
	for i := 0; i < sweepLines; i++ {
		at = h.Store(0, base+memsim.PAddr(i)*memsim.LineBytes, buf[:], at)
	}
	return h, base, at
}

// TestMissPathScanCounts pins the set scans — probes the way predictor did
// not answer — of each kind of miss on a warmed Table 2 hierarchy. Each
// public operation probes every level at most once per line it handles (the
// requested line, and each victim on its way down) and hands what it found
// to the installs below, so these are the counts of that rule; a lookup
// repeated after a miss scans the set again and moves them.
func TestMissPathScanCounts(t *testing.T) {
	h, base, at := warmHierarchy()
	line := func(i int) memsim.PAddr { return base + memsim.PAddr(i)*memsim.LineBytes }
	fresh := func(i int) memsim.PAddr { return line(sweepLines + i) }
	l1, l2, l3 := h.l1[0], h.l2[0], h.l3
	la := func(pa memsim.PAddr) uint64 { return uint64(pa >> memsim.LineShift) }
	// present reports whether l holds pa's line without a probe, which
	// would move the counters and train the predictor.
	present := func(l *level, pa memsim.PAddr) bool {
		b := l.block(l.index(la(pa)))
		if b < 0 {
			return false
		}
		for w := range l.ways {
			if uint64(*l.tagRef(b<<l.wbits + w)) == la(pa)+1 {
				return true
			}
		}
		return false
	}
	var buf [8]byte
	// The counts name each probe that scans: the requested line's (rl), the
	// L2 victim's (v2: L1 for its private copy, L3 for its demotion) and the
	// L1 victim's (v1: L2 for its spill). The way predictor answers the
	// others, the dirty L1 victim's L2 probe among them.
	for _, c := range []struct {
		name string
		pre  func() string // a violated precondition, or ""; nil: none
		op   func()
		want [3]int // L1, L2, L3 scans
	}{{
		// Swept 1000 lines before the end: L2 holds it, L1 does not. rl: L1.
		name: "L2-hit Load",
		pre: func() string {
			if pa := line(sweepLines - 1000); present(l1, pa) || !present(l2, pa) {
				return "the line is not in L2 only"
			}
			return ""
		},
		op:   func() { at = h.Load(0, line(sweepLines-1000), buf[:], at) },
		want: [3]int{1, 0, 0},
	}, {
		// Swept 10000 lines before the end: in L3, in neither private level.
		// rl: L1, L2, L3; v2: L1, L3.
		name: "L3-hit Load",
		pre: func() string {
			if pa := line(sweepLines - 10000); present(l2, pa) || !present(l3, pa) {
				return "the line is not in L3 only"
			}
			return ""
		},
		op:   func() { at = h.Load(0, line(sweepLines-10000), buf[:], at) },
		want: [3]int{2, 1, 2},
	}, {
		// rl: L1, L2, L3; v2: L1, L3.
		name: "memory-miss Load, dirty victims at every level",
		pre: func() string {
			for _, l := range []*level{l1, l2, l3} {
				if !l.isDirty(l.victim(la(fresh(0)))) {
					return "a victim is clean"
				}
			}
			return ""
		},
		op:   func() { at = h.Load(0, fresh(0), buf[:], at) },
		want: [3]int{2, 1, 2},
	}, {
		// rl: L1, L2, L3; v2: L1, L3.
		name: "Store miss",
		op:   func() { at = h.Store(0, fresh(1), buf[:], at) },
		want: [3]int{2, 1, 2},
	}, {
		// SSP's first store to a line of a page: `from` was never loaded.
		// rl (from): L1, L2, L3; v2: L1, L3; the target's stale copies: L3.
		name: "Retag",
		op:   func() { at = h.Retag(0, fresh(2), fresh(3), at) },
		want: [3]int{2, 1, 3},
	}, {
		// The retagged line at commit: dirty in L1, in neither L2 nor L3.
		// rl: L2, L3.
		name: "Flush",
		op:   func() { at, _ = h.Flush(0, fresh(3), at, stats.CatData) },
		want: [3]int{0, 1, 1},
	}} {
		if c.pre != nil {
			if msg := c.pre(); msg != "" {
				t.Fatalf("%s: precondition: %s", c.name, msg)
			}
		}
		before := h.scans()
		c.op()
		got := h.scans()
		for i := range got {
			got[i] -= before[i]
		}
		if got != c.want {
			t.Errorf("%s: scanned L1, L2, L3 sets %v times, want %v", c.name, got, c.want)
		}
	}
	if msg := h.DebugValidate(); msg != "" {
		t.Fatal(msg)
	}
}

// After a warm-up, no kind of miss allocates: the sets it fills are
// materialised, and so are the memory pages its write-backs land in.
func TestMissPathAllocatesNothing(t *testing.T) {
	h, base := benchHierarchy()
	var at engine.Cycles
	var buf [8]byte
	data := make([]byte, memsim.LineBytes)
	line := func(i int) memsim.PAddr { return base + memsim.PAddr(i)*memsim.LineBytes }
	// Lines that share an L1 set and spread over L2 sets (L2 hits), share
	// an L2 set and spread over L3 sets (L3 hits), or share an L3 set (memory
	// misses): 32 each, cycled, at least twice the associativity of the level
	// that must miss.
	const l1Sets, l2Sets, l3Sets = 64, 512, 12288
	next := make(map[int]int, 3)
	cycle := func(stride int) memsim.PAddr {
		i := next[stride]
		next[stride] = (i + 1) % 32
		return line(stride * i)
	}
	st := h.st
	for _, c := range []struct {
		name string
		op   func()
		hit  *uint64 // the counter one run must step, if any
	}{
		{"L2-hit Load", func() { at = h.Load(0, cycle(l1Sets), buf[:], at) }, &st.CacheHits[1]},
		{"L3-hit Load", func() { at = h.Load(0, cycle(l2Sets), buf[:], at) }, &st.CacheHits[2]},
		{"memory-miss Load", func() { at = h.Load(0, cycle(l3Sets), buf[:], at) }, &st.CacheMisses[2]},
		{"Store miss", func() { at = h.Store(0, cycle(l3Sets)+8, buf[:], at) }, &st.CacheMisses[2]},
		{"Flush", func() {
			pa := cycle(l2Sets)
			at = h.Store(0, pa, buf[:], at)
			at, _ = h.Flush(0, pa, at, stats.CatData)
		}, nil},
		{"Retag", func() {
			pa := cycle(l3Sets)
			at = h.Retag(0, pa, pa+memsim.PageBytes, at)
			at, _ = h.Flush(0, pa+memsim.PageBytes, at, stats.CatData)
		}, nil},
		{"WritebackInvalidate", func() {
			pa := cycle(l1Sets)
			at = h.Store(0, pa, buf[:], at)
			at, _ = h.WritebackInvalidate(pa, at, stats.CatData)
		}, nil},
		{"InjectLine", func() {
			pa := cycle(l2Sets)
			at = h.Load(0, pa, buf[:], at)
			h.InjectLine(pa, data)
		}, nil},
	} {
		// The memory's occupancy rings grow with the simulated span they
		// cover until it passes their history bound: warm until a batch of
		// operations allocates nothing, then hold the next batch to zero.
		warm := 0
		for ; warm < 100 && testing.AllocsPerRun(100, c.op) != 0; warm++ {
		}
		if warm == 100 {
			t.Fatalf("%s never stopped allocating", c.name)
		}
		if n := testing.AllocsPerRun(100, c.op); n != 0 {
			t.Errorf("%s allocated %.2f times per run", c.name, n)
		}
		if c.hit != nil {
			n := *c.hit
			for i := 0; i < 64; i++ {
				c.op()
			}
			if *c.hit != n+64 {
				t.Errorf("%s: 64 runs stepped its hit or miss counter %d times", c.name, *c.hit-n)
			}
		}
	}
}
