// Package memsim models the hybrid DRAM + NVRAM main memory of the paper's
// simulated machine (Table 2): DRAM and NVRAM DIMMs spread over one or more
// independent memory channels, with per-bank busy timelines, row-buffer
// locality and per-line data-bus occupancy per channel. It stands in for the
// DRAMSim2 model the paper integrated into MarssX86.
//
// # Channels
//
// Config.Channels splits the memory system into independent channels, each
// with its own banks and its own data-bus occupancy timeline. Addresses are
// interleaved across channels at cacheline granularity: consecutive 64-byte
// lines rotate channels, so even single-page traffic spreads over all of
// them. The address→(channel, channel-local address) mapping is a bijection,
// and within a channel the local address stream preserves row-buffer
// locality: a sequential walk of physical memory is a sequential walk of
// every channel.
//
// Cores therefore only contend in simulated bus time when they genuinely
// hit the same channel. Channel and bank selectors are swizzled with higher
// address bits (permutation-based interleaving) so power-of-2-strided
// regions such as the per-core logs do not alias onto a single bank and
// serialise every core. One channel keeps the single shared bus of the
// paper's model.
//
// Besides timing, the package owns the *durable* byte image of NVRAM: a
// write becomes durable only when it reaches this package. The cache
// hierarchy above holds dirty data in volatile arrays, so simulating a power
// failure is exact — drop the caches, and only what was written back
// survives. PowerOff and SetWriteTrap make the durable image stop accepting
// writes, which is how the crash-consistency tests cut the write stream at
// arbitrary points.
//
// # Determinism contract under the window scheduler
//
// The bank wheels, bus ledgers and row-buffer state in this package update
// in ARRIVAL order. The bounded-lag window scheduler
// (internal/machine/winsched.go) serialises core execution in
// simulated-time order, which makes every arbitration here — bank queueing,
// bus occupancy, row hits vs misses — a pure function of simulated state.
// Nothing in this package may therefore consult host time or host identity
// (goroutine, map iteration order) in a way that feeds back into timing or
// the durable image.
//
// # Host synchronisation
//
// Memory takes no host lock: serially and under the window scheduler one
// core executes at a time, every call runs to completion before the next,
// and the scheduler's grant orders successive cores' calls.
package memsim

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/stats"
)

// PAddr is a physical byte address in the simulated machine.
type PAddr uint64

// Geometry constants shared by the whole simulator.
const (
	LineBytes    = 64
	LineShift    = 6
	PageBytes    = 4096
	PageShift    = 12
	LinesPerPage = PageBytes / LineBytes
)

// MaxChannels is the largest supported Config.Channels (bounded by the
// per-channel counter arrays in stats.Stats).
const MaxChannels = stats.MaxChannels

// LineAddr returns the line-aligned base of pa.
func LineAddr(pa PAddr) PAddr { return pa &^ (LineBytes - 1) }

// PageAddr returns the page-aligned base of pa.
func PageAddr(pa PAddr) PAddr { return pa &^ (PageBytes - 1) }

// LineIndex returns the index of pa's cache line within its page (0..63).
func LineIndex(pa PAddr) int { return int(pa>>LineShift) & (LinesPerPage - 1) }

// Config describes the memory system. The zero value is not usable; use
// DefaultConfig.
type Config struct {
	FreqGHz float64 // core frequency used to convert ns to cycles

	DRAMBytes uint64
	DRAMBanks int
	DRAMRow   int // row-buffer bytes per bank
	DRAMRead  float64
	DRAMWrite float64 // ns

	NVRAMBase  PAddr // start of the NVRAM physical range
	NVRAMBytes uint64
	NVRAMBanks int
	NVRAMRow   int
	NVRAMRead  float64 // ns
	NVRAMWrite float64 // ns

	RowHitFrac float64 // latency multiplier applied on a row-buffer hit
	BusNS      float64 // per-channel bus occupancy per 64-byte transfer

	// Channels is the number of independent memory channels (default 1,
	// max MaxChannels). The configured bank counts are divided across the
	// channels.
	Channels int
}

// DefaultConfig returns the paper's Table 2 memory parameters, with
// capacities scaled to simulation-friendly sizes (the paper's 8 GiB DIMMs
// are configurable but unnecessary for the workloads). The default is a
// single channel — the paper's single-bus model; multi-channel runs opt in
// via Channels.
func DefaultConfig() Config {
	return Config{
		FreqGHz:    3.7,
		DRAMBytes:  32 << 20,
		DRAMBanks:  64,
		DRAMRow:    1024,
		DRAMRead:   50,
		DRAMWrite:  50,
		NVRAMBase:  1 << 32,
		NVRAMBytes: 128 << 20,
		NVRAMBanks: 32,
		NVRAMRow:   2048,
		NVRAMRead:  50,
		NVRAMWrite: 200,
		RowHitFrac: 0.6,
		BusNS:      4,
		Channels:   1,
	}
}

// Occupancy-wheel geometry: each shared resource (a bank, a channel's data
// bus) accounts its busy time in a ring of fixed-span simulated-time
// buckets. Within a bucket, bookings pack first-come-first-served — exactly
// the busy-until scalar — so serial execution, whose issue times are
// non-decreasing, sees precise FIFO queueing. Across buckets the wheel
// covers wheelBuckets*wheelSpan cycles of history; a booking for a bucket
// whose accounting has since been recycled (a core fallen further behind
// than the wheel covers) is admitted without queueing.
//
// That last property is the point. Concurrent cores issue accesses in host
// order, which need not be simulated-time order. A single busy-until scalar
// ratchets to the farthest-ahead core and retroactively drags every other
// core's clock to it — every shared resource becomes a lockstep
// synchroniser and the parallel machine serialises (the pre-channel model
// capped 4-core speedup near 1x regardless of bank count). The wheel books
// each access where the resource is genuinely free at that simulated time:
// cores only wait on real overlap, and stale history errs toward optimism
// instead of dragging clocks forward.
const (
	wheelSpan       = 4096 // cycles per bucket
	wheelBuckets    = 512  // history span: ~2M cycles (~0.57 ms at 3.7 GHz)
	wheelMinBuckets = 8    // a ring's first length
)

// wbucket is one wheel bucket: the busy cycles booked in the simulated-time
// window [epoch*wheelSpan, (epoch+1)*wheelSpan), packed from the window
// start (bookings may overhang the end; the overhang carries into the next
// lookup).
type wbucket struct {
	epoch int64
	used  engine.Cycles
}

// wheel is the occupancy ledger of one shared resource: a ring of buckets,
// bucket epoch e at slot e mod len(b). The history bound is wheelBuckets, but
// the ring is only as long as the simulated span it has been asked about: its
// length is the smallest power of two (at least wheelMinBuckets, at most
// wheelBuckets) covering every epoch looked up since the last reset, the
// window [lo, lo+span). A bank no access reaches costs nothing, and a short
// run books a few buckets instead of wheelBuckets.
//
// The short ring answers every lookup exactly as the full one would. While
// the queried epochs fit in a window no wider than the ring, no two of them
// share a slot, so each slot holds its own epoch's bucket or an empty one —
// and so does the full ring at epoch mod wheelBuckets, because it has seen
// the same epochs. Growth moves every bucket to its slot in the longer ring;
// at wheelBuckets the ring is the full one, slot for slot, and its window
// covers every epoch. reset empties the ring in place and keeps its length.
type wheel struct {
	b        []wbucket
	mask     int64 // len(b) - 1
	lo, span int64 // epochs queried since the last reset: [lo, lo+span)
}

// at returns epoch idx's slot, first growing the ring when idx widens the
// queried window past its length. A lookup inside the window costs one
// compare.
func (w *wheel) at(idx int64) *wbucket {
	if uint64(idx-w.lo) >= uint64(w.span) {
		w.widen(idx)
	}
	return &w.b[idx&w.mask]
}

func (w *wheel) widen(idx int64) {
	lo, hi := idx, idx+1
	if w.span > 0 {
		lo, hi = min(w.lo, idx), max(w.lo+w.span, idx+1)
	}
	n := max(len(w.b), wheelMinBuckets)
	for int64(n) < hi-lo && n < wheelBuckets {
		n *= 2
	}
	if n == wheelBuckets {
		lo, hi = 0, math.MaxInt64 // the full ring: every epoch has its slot
	}
	w.lo, w.span = lo, hi-lo
	if n == len(w.b) {
		return
	}
	b := make([]wbucket, n)
	for _, s := range w.b {
		if s != (wbucket{}) {
			b[s.epoch&int64(n-1)] = s
		}
	}
	w.b, w.mask = b, int64(n-1)
}

// peek returns epoch idx's bucket if the ring holds it, without widening the
// window: an epoch outside it was never booked, so its slot holds another
// epoch or an empty bucket.
func (w *wheel) peek(idx int64) *wbucket {
	if len(w.b) == 0 {
		return nil
	}
	if s := &w.b[idx&w.mask]; s.epoch == idx {
		return s
	}
	return nil
}

// reset empties the ring (a reboot) and keeps its storage; a full ring's
// window stays every epoch.
func (w *wheel) reset() {
	clear(w.b)
	if len(w.b) < wheelBuckets {
		w.lo, w.span = 0, 0
	}
}

// reserveFIFO books dur busy cycles at the earliest position at or after
// `at` where the resource is free, and returns the booked start time. Each
// bucket is a first-come-first-served frontier, so accesses racing for the
// same bank within a bucket's window queue exactly as on the busy-until
// scalar; the approximation is that a bucket's idle gaps behind its
// frontier are not reusable. Used for banks, whose traffic is chains of
// dependent accesses.
func (w *wheel) reserveFIFO(at, dur engine.Cycles) engine.Cycles {
	if at < 0 {
		at = 0
	}
	idx := int64(at) / wheelSpan
	start := at
	// A previous bucket's bookings may overhang into this one.
	if p := idx - 1; p >= 0 {
		if s := w.peek(p); s != nil {
			if e := engine.Cycles(p)*wheelSpan + s.used; e > start {
				start = e
			}
		}
	}
	for {
		s := w.at(idx)
		if s.epoch < idx {
			s.epoch, s.used = idx, 0 // recycle a stale bucket
		}
		if s.epoch > idx {
			// The wheel has moved past this window: its accounting is gone.
			// Admit the straggler without queueing rather than dragging it
			// to the frontier (see the type comment).
			return start
		}
		base := engine.Cycles(idx) * wheelSpan
		if e := base + s.used; e > start {
			start = e
		}
		if start < base+wheelSpan {
			w.bookFrontier(start, dur)
			return start
		}
		idx++ // booked through this window's end; carry into the next
	}
}

// bookFrontier records [start, start+dur) as the new packed frontier of
// every bucket the window covers. Bookings longer than one span (very slow
// NVRAM configs, e.g. the Figure 8 latency sweep at high multiples) must
// stamp every covered bucket, or reserveFIFO's one-bucket lookback would
// admit overlapping accesses issued a few windows later.
func (w *wheel) bookFrontier(start, dur engine.Cycles) {
	end := start + dur
	for idx := int64(start) / wheelSpan; engine.Cycles(idx)*wheelSpan < end; idx++ {
		s := w.at(idx)
		if s.epoch < idx {
			s.epoch, s.used = idx, 0
		}
		if s.epoch > idx {
			return // the wheel already moved past this window
		}
		if rel := end - engine.Cycles(idx)*wheelSpan; rel > s.used {
			s.used = rel
		}
	}
}

// reserveCapacity books dur busy cycles in the earliest bucket at or after
// `at` with spare capacity and returns the slot time. Unlike reserveFIFO,
// a bucket only delays transfers once its whole span is booked — position
// within the window is not modelled. Used for the channel data bus: every
// access crosses it, so frontier semantics would re-couple the cores the
// wheel exists to decouple; what matters is the bandwidth cap, reached at
// span/dur transfers per window.
func (w *wheel) reserveCapacity(at, dur engine.Cycles) engine.Cycles {
	if at < 0 {
		at = 0
	}
	idx := int64(at) / wheelSpan
	start := engine.Cycles(-1)
	for dur > 0 {
		s := w.at(idx)
		if s.epoch < idx {
			s.epoch, s.used = idx, 0
		}
		if s.epoch > idx {
			// Recycled accounting: admit the straggler (see above).
			if start < 0 {
				return at
			}
			return start
		}
		if avail := wheelSpan - s.used; avail > 0 {
			// Bookings larger than one bucket's remaining capacity split
			// across consecutive buckets (a transfer slower than wheelSpan,
			// or a nearly-full window).
			if start < 0 {
				start = engine.Cycles(idx) * wheelSpan
				if at > start {
					start = at
				}
			}
			take := avail
			if dur < take {
				take = dur
			}
			s.used += take
			dur -= take
		}
		if dur > 0 {
			idx++
		}
	}
	return start
}

type bank struct {
	tl      wheel
	openRow uint64 // the open row + 1; 0 while no row is open
}

// channel is one independent memory channel: its own banks and its own bus
// occupancy ledger. Its DRAM and its NVRAM banks are allocated at its first
// access to that kind of memory.
type channel struct {
	dramBanks []bank
	nvBanks   []bank
	bus       wheel
}

// Memory is the simulated hybrid memory system. Every channel writes its
// timing counters to the Stats passed to New; the per-channel ones
// (ChannelLines, ChannelBusyCycles) are arrays indexed by channel.
type Memory struct {
	cfg       Config
	nChannels int
	st        *stats.Stats

	dram  region
	nvram region

	chans          []channel
	dramPer, nvPer int // banks per channel
	busCycles      engine.Cycles

	powerOff   bool
	trapAfter  int64 // remaining NVRAM writes before power-off; <0 disabled
	onPowerOff func()
}

// New allocates a memory system per cfg, with zeroed contents, charging its
// counters to st.
func New(cfg Config, st *stats.Stats) *Memory {
	if cfg.FreqGHz <= 0 {
		panic("memsim: FreqGHz must be positive")
	}
	nCh := cfg.Channels
	if nCh <= 0 {
		nCh = 1
	}
	if nCh > MaxChannels {
		panic(fmt.Sprintf("memsim: Channels %d exceeds MaxChannels %d", nCh, MaxChannels))
	}
	dramPer := cfg.DRAMBanks / nCh
	if dramPer < 1 {
		dramPer = 1
	}
	nvPer := cfg.NVRAMBanks / nCh
	if nvPer < 1 {
		nvPer = 1
	}
	m := &Memory{
		cfg:       cfg,
		nChannels: nCh,
		st:        st,
		dram:      newRegion(0, cfg.DRAMBytes),
		nvram:     newRegion(cfg.NVRAMBase, cfg.NVRAMBytes),
		chans:     make([]channel, nCh),
		dramPer:   dramPer,
		nvPer:     nvPer,
		busCycles: engine.NSToCycles(cfg.BusNS, cfg.FreqGHz),
		trapAfter: -1,
	}
	return m
}

// Config returns the configuration the memory was built with.
func (m *Memory) Config() Config { return m.cfg }

// Channels returns the effective channel count.
func (m *Memory) Channels() int { return m.nChannels }

// IsNVRAM reports whether pa falls in the NVRAM physical range.
func (m *Memory) IsNVRAM(pa PAddr) bool {
	return pa >= m.cfg.NVRAMBase && pa < m.cfg.NVRAMBase+PAddr(m.cfg.NVRAMBytes)
}

// Contains reports whether pa is backed by this memory at all.
func (m *Memory) Contains(pa PAddr) bool {
	return pa < PAddr(m.cfg.DRAMBytes) || m.IsNVRAM(pa)
}

// swizzle returns a deterministic permutation offset for interleave group q
// (a multiplicative hash). Real memory controllers permute the channel/bank
// selector with higher address bits so that fixed power-of-2 strides — per-
// core log regions, page-aligned arenas — do not alias onto one channel or
// bank (permutation-based interleaving, cf. Zhang et al., MICRO-33). Pure
// modulo selection would map every core's 64 KiB-strided log tail to the
// same bank and serialise all cores on its timeline.
func swizzle(q uint64) uint64 {
	return (q * 0x9E3779B97F4A7C15) >> 33
}

// route maps a physical address to (channel index, channel-local address):
// line i goes to channel i mod n, rotated per group of n lines by the
// swizzle. The mapping is a bijection: the channel-local stream of each
// channel is dense, so row-buffer locality is preserved per channel, and
// within one group of n lines the lines map to n distinct channels (the
// swizzle only rotates each group).
func (m *Memory) route(pa PAddr) (int, PAddr) {
	n := uint64(m.nChannels)
	if n == 1 {
		return 0, pa
	}
	la := uint64(pa >> LineShift)
	ch := (la%n + swizzle(la/n)) % n
	return int(ch), PAddr(la/n)<<LineShift | (pa & (LineBytes - 1))
}

// ChannelOf returns the channel index serving pa.
func (m *Memory) ChannelOf(pa PAddr) int {
	ch, _ := m.route(pa)
	return ch
}

// copyIn copies data into the byte image, chunking at block boundaries.
func (m *Memory) copyIn(pa PAddr, data []byte) {
	for len(data) > 0 {
		n := min(blockBytes-int(pa&(blockBytes-1)), len(data))
		r, off := m.locate(pa, n)
		b := r.owned(off)
		if b == nil {
			b = r.own(off)
		}
		copy(b[off&(blockBytes-1):], data[:n])
		pa += PAddr(n)
		data = data[n:]
	}
}

// copyOut copies bytes out of the image.
func (m *Memory) copyOut(pa PAddr, buf []byte) {
	for len(buf) > 0 {
		n := min(blockBytes-int(pa&(blockBytes-1)), len(buf))
		r, off := m.locate(pa, n)
		copy(buf[:n], r.readable(off)[off&(blockBytes-1):])
		pa += PAddr(n)
		buf = buf[n:]
	}
}

// access charges timing for one memory transaction at address pa and
// returns its completion time. It routes the address to its channel,
// updates the channel's bank/bus timelines and counts the access. nbytes is the
// byte count recorded for write accounting.
func (m *Memory) access(pa PAddr, write bool, at engine.Cycles, cat stats.WriteCat, nbytes int) engine.Cycles {
	chIdx, ca := m.route(pa)
	c := &m.chans[chIdx]
	nv := m.IsNVRAM(pa)

	var banks []bank
	var rowBytes int
	var lat float64
	if nv {
		if c.nvBanks == nil {
			c.nvBanks = make([]bank, m.nvPer)
		}
		banks = c.nvBanks
		rowBytes = m.cfg.NVRAMRow
		if write {
			lat = m.cfg.NVRAMWrite
			m.st.NVRAMWriteLines++ // line count maintained here; bytes by caller category
			m.st.NVRAMWriteBytes[cat] += uint64(nbytes)
		} else {
			lat = m.cfg.NVRAMRead
			m.st.NVRAMReadLines++
		}
	} else {
		if c.dramBanks == nil {
			c.dramBanks = make([]bank, m.dramPer)
		}
		banks = c.dramBanks
		rowBytes = m.cfg.DRAMRow
		if write {
			lat = m.cfg.DRAMWrite
			m.st.DRAMWriteLines++
		} else {
			lat = m.cfg.DRAMRead
			m.st.DRAMReadLines++
		}
	}

	// Address mapping (within the channel-local stream): columns within a
	// row stay in one bank, rows interleave across the channel's banks with
	// a swizzled (permutation-based) selector — sequential streams (logs,
	// consolidation copies) enjoy row-buffer hits like DRAMSim2's default
	// mapping, while power-of-2-strided regions (per-core logs) spread
	// across banks instead of aliasing onto one.
	rowGlobal := uint64(ca) / uint64(rowBytes)
	nb := uint64(len(banks))
	row := rowGlobal / nb
	b := &banks[(rowGlobal%nb+swizzle(row))%nb]

	latency := engine.NSToCycles(lat, m.cfg.FreqGHz)
	if b.openRow == row+1 {
		m.st.RowHits++
		latency = engine.Cycles(float64(latency) * m.cfg.RowHitFrac)
	} else {
		m.st.RowMisses++
		b.openRow = row + 1
	}

	if nv && write {
		// Bank-occupancy accounting by purpose: how long the NVRAM banks
		// spent absorbing each write category (journal appends, data
		// flushes, checkpoints, ...). The serial-append cost of a shared
		// metadata journal shows up here as CatMetaJournal busy cycles.
		m.st.NVRAMBankBusy[cat] += uint64(latency)
	}

	// Reservation: the access occupies its bank for the full latency, and
	// the 64-byte transfer needs one bus slot on the channel. The transfer
	// pipelines with the array access (as on a real DDR channel), so a slot
	// anywhere from the access start suffices; only when the bus is
	// saturated does the slot land past the window and stretch the
	// completion — the channel's bandwidth limit.
	start := b.tl.reserveFIFO(at, latency)
	done := start + latency
	if m.busCycles > 0 {
		slot := c.bus.reserveCapacity(start, m.busCycles)
		if slot+m.busCycles > done {
			done = slot + m.busCycles
		}
	}
	m.st.ChannelLines[chIdx]++
	m.st.ChannelBusyCycles[chIdx] += uint64(m.busCycles)
	return done
}

// ReadLine copies the durable 64-byte line at pa into buf and returns the
// completion time of the read.
func (m *Memory) ReadLine(pa PAddr, buf []byte, at engine.Cycles) engine.Cycles {
	pa = LineAddr(pa)
	m.copyOut(pa, buf[:LineBytes])
	return m.access(pa, false, at, stats.CatData, 0)
}

// WriteLine makes the 64-byte line at pa durable with the given contents
// (unless power is off) and returns the completion time. cat classifies the
// write for the Figure 6/7 accounting; classification only applies to NVRAM.
func (m *Memory) WriteLine(pa PAddr, data []byte, at engine.Cycles, cat stats.WriteCat) engine.Cycles {
	return m.WriteBytes(LineAddr(pa), data[:LineBytes], at, cat)
}

// WriteBytes is WriteLine for arbitrary small spans (used for 8-byte atomic
// pointer updates, partial log records, and page-table entries). The span
// must not cross a line boundary. A sub-line write still occupies the bank
// like a full write; only the byte accounting differs.
func (m *Memory) WriteBytes(pa PAddr, data []byte, at engine.Cycles, cat stats.WriteCat) engine.Cycles {
	if len(data) == 0 || len(data) > LineBytes {
		panic(fmt.Sprintf("memsim: WriteBytes of %d bytes", len(data)))
	}
	if LineAddr(pa) != LineAddr(pa+PAddr(len(data))-1) {
		panic(fmt.Sprintf("memsim: WriteBytes spans a line boundary at %#x+%d", pa, len(data)))
	}
	nv := m.IsNVRAM(pa)
	var fired, lost bool
	if nv {
		if m.trapAfter >= 0 {
			if m.trapAfter == 0 {
				fired = m.setPowerOff()
			} else {
				m.trapAfter--
			}
		}
		lost = m.powerOff
	}
	done := m.access(pa, true, at, cat, len(data))
	if fired && m.onPowerOff != nil {
		m.onPowerOff()
	}
	if !lost {
		m.copyIn(pa, data)
	}
	return done
}

// Peek copies durable bytes without timing or power-failure effects. Used
// for recovery-time parsing and test verification.
func (m *Memory) Peek(pa PAddr, buf []byte) {
	m.copyOut(pa, buf)
}

// Written reports whether anything was ever written to the page holding pa;
// a page that was not reads as zeros. Recovery skips such pages of a region
// whose all-zero contents have a meaning of their own (SSP's slot array).
func (m *Memory) Written(pa PAddr) bool {
	r, off := m.locate(pa, 1)
	return r.pageAt(off) != nil
}

// Poke sets durable bytes without timing; used only for initialisation
// (formatting persistent regions) and tests. It ignores PowerOff.
func (m *Memory) Poke(pa PAddr, data []byte) {
	m.copyIn(pa, data)
}

// PowerOff makes all subsequent NVRAM writes vanish, simulating the instant
// of power failure. Timing continues to be charged (the machine does not
// know power failed); the caller is expected to stop the run and recover.
func (m *Memory) PowerOff() {
	if m.setPowerOff() && m.onPowerOff != nil {
		m.onPowerOff()
	}
}

// setPowerOff flips the power state; it reports whether this call was the
// one that cut power (the callback fires once).
func (m *Memory) setPowerOff() bool {
	if m.powerOff {
		return false
	}
	m.powerOff = true
	m.trapAfter = -1
	return true
}

// PoweredOff reports whether a power failure has been injected.
func (m *Memory) PoweredOff() bool { return m.powerOff }

// SetWriteTrap arms a power failure after n more durable NVRAM writes: the
// next n writes land, everything after is lost. n=0 loses the very next
// write. Pass a negative n to disarm.
func (m *Memory) SetWriteTrap(n int64) {
	if n < 0 {
		m.trapAfter = -1
		return
	}
	m.trapAfter = n
}

// OnPowerOff registers a callback invoked once when power fails (armed trap
// or explicit PowerOff). Tests use it to stop workload loops. The callback
// may inspect the memory freely.
func (m *Memory) OnPowerOff(fn func()) { m.onPowerOff = fn }

// PowerOn clears the power-off state after recovery has rebuilt volatile
// structures; durable contents are preserved.
func (m *Memory) PowerOn() { m.powerOff = false }

// ResetTiming clears bank/bus timelines and open-row state on every channel
// (a reboot); durable contents and statistics are untouched. The rings keep
// their storage, so replaying the same traffic allocates nothing.
func (m *Memory) ResetTiming() {
	for i := range m.chans {
		c := &m.chans[i]
		for _, banks := range [2][]bank{c.dramBanks, c.nvBanks} {
			for j := range banks {
				b := &banks[j]
				b.tl.reset()
				b.openRow = 0
			}
		}
		c.bus.reset()
	}
}
