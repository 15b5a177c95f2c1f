package machine

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/engine"
	"repro/internal/memsim"
)

// Core is a simulated core's programming interface: the ISA extension of
// §3.1 (ATOMIC_BEGIN / ATOMIC_STORE / ATOMIC_END) plus ordinary loads and
// non-transactional stores, all advancing the core's clock.
//
// Core implements pheap.Tx, so the allocator can be called mid-transaction.
type Core struct {
	m     *Machine
	id    int
	inTxn bool

	// Per-transaction write-set characterisation feeding the Table 3
	// statistics: one entry per virtual page written, with a bitmap of its
	// written lines. Emptied at each Begin; the slice keeps its capacity.
	ws []wsPage

	// word is Store64's and Load64's buffer. A local array would escape to
	// the heap through the backend interface call — one allocation per
	// access, most of what a transaction allocated; no backend keeps the
	// slice past the call.
	word [8]byte
}

// ID returns the core index.
func (c *Core) ID() int { return c.id }

// Now returns the core's clock.
func (c *Core) Now() engine.Cycles { return c.m.clocks[c.id] }

// SetNow moves the core's clock forward (drivers use it to align clients);
// moving backwards panics.
func (c *Core) SetNow(t engine.Cycles) {
	if t < c.m.clocks[c.id] {
		panic("machine: clock moved backwards")
	}
	c.m.clocks[c.id] = t
	c.tick()
}

// Compute charges n cycles of pure computation.
func (c *Core) Compute(n engine.Cycles) {
	c.m.clocks[c.id] += n
	c.tick()
}

func (c *Core) op() {
	c.m.clocks[c.id] += c.m.cfg.OpCycles
	c.tick()
}

// tick is the window scheduler's op-boundary hook: once the core's clock
// reaches the current window's end it yields the execution slot (see
// winsched.go). Serial execution pays one flag check. The unsynchronised
// windowEnd read is ordered by the coroutine switch that resumed this core —
// windowEnd only changes in the drive loop, while no core holds the slot.
func (c *Core) tick() {
	if s := c.m.sched; s.active && c.m.clocks[c.id] >= s.windowEnd {
		s.yield(c.id)
	}
}

// BlockExternal runs wait() with the core marked as blocked on a host-side
// event — a channel receive, a timer — so Run's lockstep barrier does not
// hold every other core hostage to an event that may never come (the
// network server's worker queues). Simulated time does not advance while
// blocked. Inside Run, wait runs on a helper goroutine of the core while the
// core's coroutine is parked, so wait must not touch the Core; variables it
// assigns are visible to the core once BlockExternal returns. Outside Run it
// just runs wait(). Determinism is forfeited for the run: external wake-ups
// arrive in host order.
func (c *Core) BlockExternal(wait func()) {
	if s := c.m.sched; s.active {
		s.external(c.id, wait)
		return
	}
	wait()
}

// begin is the shared section-opening bookkeeping; start is the backend's
// Begin or BeginGlobal.
func (c *Core) begin(start func(core int, at engine.Cycles) engine.Cycles) {
	if c.inTxn {
		panic("machine: nested Begin")
	}
	c.op()
	c.m.clocks[c.id] = start(c.id, c.m.clocks[c.id])
	c.inTxn = true
	c.ws = c.ws[:0]
}

// wsPage is one page of the open section's write set.
type wsPage struct {
	vpn   uint64
	lines uint64 // bit i: line i of the page was written
}

// noteWrite adds va's line to the write set. Sections write few pages and
// revisit recent ones, so a backward scan finds them.
func (c *Core) noteWrite(va uint64) {
	vpn, bit := va>>memsim.PageShift, uint64(1)<<(va>>memsim.LineShift&(memsim.LinesPerPage-1))
	for i := len(c.ws) - 1; i >= 0; i-- {
		if c.ws[i].vpn == vpn {
			c.ws[i].lines |= bit
			return
		}
	}
	c.ws = append(c.ws, wsPage{vpn: vpn, lines: bit})
}

// recordWriteSet adds the closing section's write set to the core's Table 3
// statistics.
func (c *Core) recordWriteSet() {
	lines := 0
	for _, p := range c.ws {
		lines += bits.OnesCount64(p.lines)
	}
	c.m.ws[c.id].record(lines, len(c.ws))
}

// Begin opens a failure-atomic section.
func (c *Core) Begin() { c.begin(c.m.backend.Begin) }

// BeginGlobal opens a failure-atomic section that may write pages owned by
// multiple arenas/journal shards — a cross-shard "global" transaction.
// Commit then guarantees all-or-nothing durability across every shard the
// section touched (SSP appends two-phase prepare/end records; see
// core.SSP.BeginGlobal). On the logging designs, or when the machine runs a
// single metadata shard, it behaves exactly like Begin. Isolation remains
// the program's job: acquire every involved structure's Lock (in a
// consistent order) around the section.
func (c *Core) BeginGlobal() {
	if s := c.m.ssp; s != nil {
		c.begin(s.BeginGlobal)
		return
	}
	c.begin(c.m.backend.Begin)
}

// Commit closes the section; on return its writes are durable.
func (c *Core) Commit() {
	if !c.inTxn {
		panic("machine: Commit outside transaction")
	}
	c.op()
	c.m.clocks[c.id] = c.m.backend.Commit(c.id, c.m.clocks[c.id])
	c.inTxn = false
	c.recordWriteSet()
}

// CommitRelaxed closes the section with relaxed durability: on return its
// writes are acknowledged and visible, and they become durable within the
// backend's epoch bound (ssp.Config.DurabilityEpoch) — or at the next
// Sync/Drain, whichever is first. A crash before then loses the section
// atomically, never partially (see core.SSP.CommitRelaxed). On the logging
// designs — or with DurabilityEpoch = 0 — this is exactly Commit.
func (c *Core) CommitRelaxed() {
	if !c.inTxn {
		panic("machine: Commit outside transaction")
	}
	s := c.m.ssp
	if s == nil {
		c.Commit()
		return
	}
	c.op()
	c.m.clocks[c.id] = s.CommitRelaxed(c.id, c.m.clocks[c.id])
	c.inTxn = false
	c.recordWriteSet()
}

// Sync is the durability upgrade barrier for relaxed commits: on return,
// every section this machine acknowledged before the call — relaxed or not
// — is durable. On SSP it costs one operation plus the hardens it runs; on
// the logging designs, which persist at every commit, it is free.
func (c *Core) Sync() {
	s := c.m.ssp
	if s == nil {
		return
	}
	c.op()
	c.m.clocks[c.id] = s.Sync(c.id, c.m.clocks[c.id])
}

// HardenIdle hardens this core's own metadata shard's open
// relaxed-durability epoch, if any, and reports whether a harden ran. The
// epoch age bound is billed to the next committer, so a core that goes
// quiet can leave acknowledged-but-volatile sections pending until the
// next Sync or Drain; serving loops call HardenIdle from their idle path
// instead (judging "idle" in host time — an idle core's simulated clock
// is frozen). A no-op, returning false, on the logging designs and when
// the shard has nothing unsealed (see core.SSP.HardenIdle).
func (c *Core) HardenIdle() bool {
	s := c.m.ssp
	if s == nil {
		return false
	}
	done, hardened := s.HardenIdle(c.id, c.m.clocks[c.id])
	if !hardened {
		return false // free: an idle poll that finds nothing charges nothing
	}
	c.m.clocks[c.id] = done
	return true
}

// Abort rolls the open section back.
func (c *Core) Abort() {
	if !c.inTxn {
		panic("machine: Abort outside transaction")
	}
	c.op()
	c.m.clocks[c.id] = c.m.backend.Abort(c.id, c.m.clocks[c.id])
	c.inTxn = false
}

// InTxn reports whether a section is open.
func (c *Core) InTxn() bool { return c.inTxn }

// StoreBytes performs ATOMIC_STOREs of data at va inside a transaction, or
// plain persistent stores outside one, splitting at cache-line boundaries.
func (c *Core) StoreBytes(va uint64, data []byte) {
	for len(data) > 0 {
		n := memsim.LineBytes - int(va&(memsim.LineBytes-1))
		if n > len(data) {
			n = len(data)
		}
		c.op()
		if c.inTxn {
			c.m.clocks[c.id] = c.m.backend.Store(c.id, va, data[:n], c.m.clocks[c.id])
			c.noteWrite(va)
		} else {
			c.m.clocks[c.id] = c.m.backend.StoreNT(c.id, va, data[:n], c.m.clocks[c.id])
		}
		va += uint64(n)
		data = data[n:]
	}
}

// LoadBytes reads len(buf) bytes at va, splitting at line boundaries.
func (c *Core) LoadBytes(va uint64, buf []byte) {
	for len(buf) > 0 {
		n := memsim.LineBytes - int(va&(memsim.LineBytes-1))
		if n > len(buf) {
			n = len(buf)
		}
		c.op()
		c.m.clocks[c.id] = c.m.backend.Load(c.id, va, buf[:n], c.m.clocks[c.id])
		va += uint64(n)
		buf = buf[n:]
	}
}

// Store64 writes an aligned 8-byte word.
func (c *Core) Store64(va uint64, v uint64) {
	if va%8 != 0 {
		panic(fmt.Sprintf("machine: unaligned Store64 at %#x", va))
	}
	binary.LittleEndian.PutUint64(c.word[:], v)
	c.StoreBytes(va, c.word[:])
}

// Load64 reads an aligned 8-byte word.
func (c *Core) Load64(va uint64) uint64 {
	if va%8 != 0 {
		panic(fmt.Sprintf("machine: unaligned Load64 at %#x", va))
	}
	c.LoadBytes(va, c.word[:])
	return binary.LittleEndian.Uint64(c.word[:])
}

// Acquire takes the lock, advancing the clock past the current holder and
// charging the hand-off cost. Inside Run the scheduler queues the core and
// the releaser hands the lock over in deterministic (clock, core-index)
// order. Release must run on the same goroutine.
func (c *Core) Acquire(l *Lock) {
	if s := c.m.sched; s.active {
		c.tick()
		s.lockAcquire(c.id, l)
	}
	t := engine.MaxCycles(c.m.clocks[c.id], l.freeAt) + c.m.cfg.LockCycles
	c.m.clocks[c.id] = t
}

// Release frees the lock at the core's current time.
func (c *Core) Release(l *Lock) {
	if s := c.m.sched; s.active {
		s.lockRelease(c.id, l)
		return
	}
	l.freeAt = c.m.clocks[c.id]
}
