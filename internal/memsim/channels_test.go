package memsim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/stats"
)

func channelConfig(channels int) Config {
	cfg := testConfig()
	cfg.Channels = channels
	return cfg
}

// unroute inverts route() — the test's independent model of the mapping
// (including the permutation swizzle).
func unroute(channels int, ch int, ca PAddr) PAddr {
	n := uint64(channels)
	q := uint64(ca >> LineShift)
	// Invert ch = (r + swizzle(q)) % n for the line index r within group q.
	r := (uint64(ch) + n - swizzle(q)%n) % n
	return PAddr(q*n+r)<<LineShift | (ca & (LineBytes - 1))
}

// The address→(channel, channel-local address) mapping must be a bijection
// for every channel count: invertible, and no two addresses collide on the
// same (channel, local) pair.
func TestChannelRouteBijection(t *testing.T) {
	for _, channels := range []int{1, 2, 3, 4, 8, 16} {
		t.Run(fmt.Sprintf("line/%d", channels), func(t *testing.T) {
			m := New(channelConfig(channels), &stats.Stats{})
			seen := make(map[[2]uint64]PAddr)
			base := m.Config().NVRAMBase
			rng := engine.NewRNG(uint64(channels) * 31)
			for i := 0; i < 4096; i++ {
				var pa PAddr
				switch {
				case i < 2048: // dense sequential lines from NVRAM base
					pa = base + PAddr(i)*LineBytes
				case i < 3072: // dense DRAM lines
					pa = PAddr(i-2048) * LineBytes
				default: // random NVRAM bytes (not line-aligned)
					pa = base + PAddr(rng.Uint64n(m.Config().NVRAMBytes))
				}
				ch, ca := m.route(pa)
				if ch < 0 || ch >= channels {
					t.Fatalf("route(%#x) channel %d out of range", pa, ch)
				}
				if got := unroute(channels, ch, ca); got != pa {
					t.Fatalf("route(%#x) = (%d, %#x) does not invert: got %#x", pa, ch, ca, got)
				}
				key := [2]uint64{uint64(ch), uint64(ca)}
				if prev, dup := seen[key]; dup && prev != pa {
					t.Fatalf("collision: %#x and %#x both map to (%d, %#x)", prev, pa, ch, ca)
				}
				seen[key] = pa
			}
		})
	}
}

func TestChannelPolicies(t *testing.T) {
	m := New(channelConfig(4), &stats.Stats{})
	base := m.Config().NVRAMBase
	// Every group of 4 consecutive lines covers all 4 channels (a per-group
	// permutation); bytes within a line stay together.
	for g := 0; g < 8; g++ {
		seen := map[int]bool{}
		for i := 0; i < 4; i++ {
			pa := base + PAddr(4*g+i)*LineBytes
			ch := m.ChannelOf(pa)
			if seen[ch] {
				t.Errorf("group %d maps two lines to channel %d", g, ch)
			}
			seen[ch] = true
			if m.ChannelOf(pa+63) != ch {
				t.Errorf("split a cache line at %#x", pa)
			}
		}
	}
}

// checkWheel verifies a wheel's structural invariants: the ring's length is
// a power of two within its bounds and, short of the full length, covers the
// window of queried epochs, which holds every bucket, each at its own slot;
// every bucket's booked time is non-negative and its overhang past the
// bucket span never exceeds one access latency (the carry the reserve loop
// handles).
func checkWheel(w *wheel, maxLatency engine.Cycles) error {
	n := len(w.b)
	if n == 0 {
		return nil
	}
	if n&(n-1) != 0 || n < wheelMinBuckets || n > wheelBuckets || w.mask != int64(n-1) {
		return fmt.Errorf("ring length %d, mask %#x", n, w.mask)
	}
	if n == wheelBuckets && (w.lo != 0 || w.span != math.MaxInt64) {
		return fmt.Errorf("full ring with the window [%d, %d+%d)", w.lo, w.lo, w.span)
	}
	if n < wheelBuckets && w.span > int64(n) {
		return fmt.Errorf("ring of %d buckets under a window of %d epochs from %d", n, w.span, w.lo)
	}
	for i, s := range w.b {
		if s == (wbucket{}) {
			continue
		}
		if s.epoch&int64(n-1) != int64(i) {
			return fmt.Errorf("bucket of epoch %d at slot %d of %d", s.epoch, i, n)
		}
		if n < wheelBuckets && (s.epoch < w.lo || s.epoch >= w.lo+w.span) {
			return fmt.Errorf("bucket of epoch %d outside the window [%d, %d+%d)", s.epoch, w.lo, w.lo, w.span)
		}
		if s.used < 0 {
			return fmt.Errorf("bucket %d booked negative time %d", i, s.used)
		}
		if s.used > wheelSpan+maxLatency {
			return fmt.Errorf("bucket %d overbooked: %d cycles in a %d-cycle span (max overhang %d)", i, s.used, wheelSpan, maxLatency)
		}
	}
	return nil
}

// wheelFrontier returns the latest booked completion across the wheel.
func wheelFrontier(w *wheel) engine.Cycles {
	var mx engine.Cycles
	for _, s := range w.b {
		if e := engine.Cycles(s.epoch)*wheelSpan + s.used; s.used > 0 && e > mx {
			mx = e
		}
	}
	return mx
}

// Per-channel bank and bus occupancy wheels must never move backwards (the
// booked frontier only advances) and must respect the per-bucket capacity
// invariant, even when accesses are issued with out-of-order start times —
// the concurrent-mode pattern the wheel exists for. Completion must never
// precede issue.
func TestChannelTimelinesMonotonic(t *testing.T) {
	m := New(channelConfig(4), &stats.Stats{})
	cfg := m.Config()
	maxLat := engine.NSToCycles(cfg.NVRAMWrite, cfg.FreqGHz)
	base := cfg.NVRAMBase
	rng := engine.NewRNG(0xC4A7)
	buf := make([]byte, LineBytes)

	prevBus := make([]engine.Cycles, 4)
	prevBank := make(map[[2]int]engine.Cycles)
	for i := 0; i < 2000; i++ {
		pa := base + PAddr(rng.Intn(512))*LineBytes
		at := engine.Cycles(rng.Intn(5000)) // deliberately non-monotonic issue times
		var done engine.Cycles
		if rng.Intn(2) == 0 {
			done = m.WriteLine(pa, buf, at, stats.CatData)
		} else {
			done = m.ReadLine(pa, buf, at)
		}
		if done < at {
			t.Fatalf("access at %d completed in the past at %d", at, done)
		}
		for c := range m.chans {
			ch := &m.chans[c]
			if err := checkWheel(&ch.bus, maxLat); err != nil {
				t.Fatalf("channel %d bus wheel: %v", c, err)
			}
			if f := wheelFrontier(&ch.bus); f < prevBus[c] {
				t.Fatalf("channel %d bus frontier went backwards: %d -> %d", c, prevBus[c], f)
			} else {
				prevBus[c] = f
			}
			for b := range ch.nvBanks {
				key := [2]int{c, b}
				if err := checkWheel(&ch.nvBanks[b].tl, maxLat); err != nil {
					t.Fatalf("channel %d bank %d wheel: %v", c, b, err)
				}
				if f := wheelFrontier(&ch.nvBanks[b].tl); f < prevBank[key] {
					t.Fatalf("channel %d bank %d frontier went backwards: %d -> %d", c, b, prevBank[key], f)
				} else {
					prevBank[key] = f
				}
			}
		}
	}
}

// A single channel serialises every transfer on one bus; four channels must
// drain the same independent write stream substantially faster in simulated
// time. This is the bandwidth unlock the parallel engine depends on. The
// stream strides one row per write over a raised bank count so it is
// genuinely bus-bound, not bank-bound (otherwise per-bank latency would
// dominate at any channel count).
func TestChannelBandwidthScaling(t *testing.T) {
	const writes = 1024
	makespan := func(channels int) engine.Cycles {
		cfg := channelConfig(channels)
		cfg.NVRAMBanks = 512
		cfg.NVRAMBytes = 4 << 20
		m := New(cfg, &stats.Stats{})
		base := m.Config().NVRAMBase
		stride := PAddr(cfg.NVRAMRow) // one row per write: banks never chain
		buf := make([]byte, LineBytes)
		var max engine.Cycles
		for i := 0; i < writes; i++ {
			// Independent writes all issued at t=0, like a commit fence over
			// a large write set.
			done := m.WriteLine(base+PAddr(i)*stride, buf, 0, stats.CatData)
			if done > max {
				max = done
			}
		}
		return max
	}
	one := makespan(1)
	four := makespan(4)
	if four*2 >= one {
		t.Errorf("4 channels did not unlock bandwidth: makespan 1ch=%d 4ch=%d (want >2x better)", one, four)
	}
}

// Aggregated per-channel counters must account for every transfer, and the
// traffic must actually spread across channels.
func TestChannelCounters(t *testing.T) {
	sh := stats.NewSharded(1)
	m := New(channelConfig(4), sh.Shared())
	m.AttachChannelStats(sh.ChannelShards(4))
	base := m.Config().NVRAMBase
	buf := make([]byte, LineBytes)
	for i := 0; i < 256; i++ {
		m.WriteLine(base+PAddr(i)*LineBytes, buf, 0, stats.CatData)
		m.ReadLine(PAddr(i)*LineBytes, buf, 0)
	}
	st := sh.Aggregate()
	var chanLines uint64
	for c := 0; c < 4; c++ {
		if st.ChannelLines[c] == 0 {
			t.Errorf("channel %d saw no traffic", c)
		}
		if st.ChannelBusyCycles[c] == 0 {
			t.Errorf("channel %d charged no bus occupancy", c)
		}
		chanLines += st.ChannelLines[c]
	}
	if total := st.NVRAMReadLines + st.NVRAMWriteLines + st.DRAMReadLines + st.DRAMWriteLines; chanLines != total {
		t.Errorf("per-channel lines %d != total transfers %d", chanLines, total)
	}
	if got := st.ActiveChannels(); got != 4 {
		t.Errorf("ActiveChannels = %d, want 4", got)
	}
}

// Accesses slower than one wheel bucket (Figure 8's high NVRAM-latency
// multiples) must stamp every bucket they cover: a same-bank access issued
// a few buckets into a long booking still queues behind it, and capacity
// bookings longer than a bucket split across buckets instead of looping.
func TestWheelLongDurations(t *testing.T) {
	cfg := testConfig()
	cfg.NVRAMWrite = 2000 // ns -> ~7400 cycles, spanning two+ buckets
	m := New(cfg, &stats.Stats{})
	base := m.Config().NVRAMBase
	buf := make([]byte, LineBytes)
	lat := engine.NSToCycles(cfg.NVRAMWrite, cfg.FreqGHz)

	d1 := m.WriteLine(base, buf, 0, stats.CatData)
	if d1 != lat {
		t.Fatalf("first long write done %d, want %d", d1, lat)
	}
	// Same bank, issued mid-way through the first booking's span (more than
	// one bucket after its start): must queue behind it, not overlap.
	at := engine.Cycles(wheelSpan + wheelSpan/2)
	if at >= d1 {
		t.Fatalf("test geometry broken: at %d not inside booking [0,%d)", at, d1)
	}
	hit := engine.Cycles(float64(lat) * cfg.RowHitFrac)
	d2 := m.WriteLine(base, buf, at, stats.CatData)
	if d2 != d1+hit {
		t.Errorf("second long write done %d, want %d (queued behind first)", d2, d1+hit)
	}

	// Capacity bookings longer than a bucket must terminate and slot at the
	// issue point when the bus is idle.
	var w wheel
	if slot := w.reserveCapacity(100, 3*wheelSpan); slot != 100 {
		t.Errorf("long capacity booking slot %d, want 100", slot)
	}
	// The spanned buckets are now full: the next slot lands past them.
	if slot := w.reserveCapacity(0, 1); slot < 3*wheelSpan {
		t.Errorf("slot %d landed inside a fully booked span", slot)
	}
}
