// Package cachesim models the processor cache hierarchy of Table 2: private
// L1D and L2 per core, a shared L3, write-back write-allocate with LRU
// replacement, and directory-based single-writer coherence.
//
// The hierarchy holds the only copy of dirty data: a line's bytes reach the
// durable memsim image only on write-back or explicit Flush (clwb). Dropping
// the hierarchy (DropAll) therefore loses exactly the non-persisted bytes —
// the behaviour a power failure has on a real machine with volatile caches.
//
// Two operations exist for SSP (§3.2, Figure 4):
//
//   - Retag atomically renames a line from one physical address to another
//     within a core's private cache, implementing the line-level
//     copy-on-write remap ("we directly apply the write to the cache line,
//     however, we atomically change the tag so that the line now maps to the
//     'other' page").
//   - Flush (clwb) writes a line back to memory while keeping a clean copy
//     cached, as used by transaction commit.
//
// Determinism contract: coherence arbitration — ownership transfers,
// invalidation order, shared-L3 replacement — resolves in the order
// requests arrive under the interconnect lock. Free-running concurrent
// cores (machine.Config.TimeWindow == 0) arrive in host order, so
// cross-core transfer timing is host-schedule dependent; under the
// bounded-lag window scheduler cores execute serially in simulated-time
// order and every transfer here becomes deterministic, with no changes to
// this package. Code here must not let host time or host scheduling
// influence simulated timing or line contents.
package cachesim

import (
	"fmt"
	"sync"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
)

// Config sizes the hierarchy. Latencies are in core cycles (Table 2).
type Config struct {
	Cores int

	L1Bytes int
	L1Ways  int
	L1Lat   engine.Cycles

	L2Bytes int
	L2Ways  int
	L2Lat   engine.Cycles

	L3Bytes int
	L3Ways  int
	L3Lat   engine.Cycles

	// CohLat is the extra latency of a coherence action that has to touch
	// another core's cache (invalidation, dirty-copy fetch).
	CohLat engine.Cycles
}

// DefaultConfig returns the paper's Table 2 cache parameters.
func DefaultConfig(cores int) Config {
	return Config{
		Cores:   cores,
		L1Bytes: 32 << 10, L1Ways: 8, L1Lat: 4,
		L2Bytes: 256 << 10, L2Ways: 8, L2Lat: 6,
		L3Bytes: 12 << 20, L3Ways: 16, L3Lat: 27,
		CohLat: 20,
	}
}

type line struct {
	tag   uint64 // line address (pa >> LineShift); meaningful when valid
	valid bool
	dirty bool
	tx    bool // speculative SSP line (set by Retag, cleared by Flush)
	lru   uint64
	data  [memsim.LineBytes]byte
}

// level is one cache array. Its sets materialise on touch: the directory
// holds one slot per setChunk consecutive sets, a slot is nil until a line is
// filled into one of its sets, and a set within it is nil until its own
// first fill. Building a level therefore costs its directory and dropping it
// costs what was filled. A nil set holds no valid line. Anything that visits
// every line (FlushAll, DebugValidate) walks sets in index order — FlushAll
// issues timed write-backs, so the order lines are visited in is part of the
// simulated result.
type level struct {
	sets int
	ways int
	lat  engine.Cycles
	dir  []*[setChunk][]line
	tick uint64
}

// setChunk is the number of consecutive sets behind one directory slot: the
// lines of one page index exactly that many consecutive sets.
const setChunk = memsim.PageBytes / memsim.LineBytes

func newLevel(bytes, ways int, lat engine.Cycles) *level {
	nLines := bytes / memsim.LineBytes
	sets := nLines / ways
	if sets == 0 {
		sets = 1
		ways = nLines
	}
	return &level{sets: sets, ways: ways, lat: lat, dir: make([]*[setChunk][]line, (sets+setChunk-1)/setChunk)}
}

// set returns lineAddr's set, nil if nothing was ever filled into it.
func (l *level) set(lineAddr uint64) []line {
	i := lineAddr % uint64(l.sets)
	if c := l.dir[i/setChunk]; c != nil {
		return c[i%setChunk]
	}
	return nil
}

// fillSet is set for the fill path: it materialises the set.
func (l *level) fillSet(lineAddr uint64) []line {
	i := lineAddr % uint64(l.sets)
	c := l.dir[i/setChunk]
	if c == nil {
		c = new([setChunk][]line)
		l.dir[i/setChunk] = c
	}
	if c[i%setChunk] == nil {
		c[i%setChunk] = make([]line, l.ways)
	}
	return c[i%setChunk]
}

// lookup returns the line holding lineAddr, or nil.
func (l *level) lookup(lineAddr uint64) *line {
	set := l.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			l.tick++
			set[i].lru = l.tick
			return &set[i]
		}
	}
	return nil
}

// peek is lookup without touching LRU state.
func (l *level) peek(lineAddr uint64) *line {
	set := l.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return &set[i]
		}
	}
	return nil
}

// victim returns the entry to fill for lineAddr: an invalid way if one
// exists, otherwise the LRU way among non-speculative lines, otherwise the
// LRU way outright. Speculative (tx) lines are kept cached when possible —
// redo-style designs must not write uncommitted data back in place (DHTM
// keeps transactional lines pinned in the volatile hierarchy).
func (l *level) victim(lineAddr uint64) *line {
	set := l.fillSet(lineAddr)
	var oldest, oldestNonTx *line
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
		if oldest == nil || set[i].lru < oldest.lru {
			oldest = &set[i]
		}
		if !set[i].tx && (oldestNonTx == nil || set[i].lru < oldestNonTx.lru) {
			oldestNonTx = &set[i]
		}
	}
	if oldestNonTx != nil {
		return oldestNonTx
	}
	return oldest
}

// reset empties the level by releasing what was materialised.
func (l *level) reset() {
	clear(l.dir)
	l.tick = 0
}

// valid returns the level's valid lines, sets in index order and ways in
// order within a set (see the type comment for why the order is fixed).
func (l *level) valid() []*line {
	var out []*line
	for _, c := range l.dir {
		if c == nil {
			continue
		}
		for _, set := range c {
			for i := range set {
				if set[i].valid {
					out = append(out, &set[i])
				}
			}
		}
	}
	return out
}

type dirEntry struct {
	sharers uint64 // bitmask of cores with a private copy
	owner   int8   // core with a dirty private copy, or -1
}

// Mem is the memory tier below the cache hierarchy. The hierarchy issues
// all sub-L3 traffic through this interface, so a buffer tier (a DRAM page
// cache, internal/buffercache) can interpose between the caches and the
// durable memsim image without the hierarchy knowing. Wrap skips the
// indirection: a bare memsim.Memory behaves bit-for-bit like the historical
// direct coupling.
//
// The distinction between the three write entry points is durability:
//
//   - EvictLine is a capacity write-back of a victim line. The hierarchy
//     never waits on it and nothing above relies on it reaching NVRAM — a
//     buffer tier may absorb it in DRAM.
//   - PersistLine is an explicit persistence request (clwb with a fence
//     behind it): the line MUST reach the durable image, and the returned
//     completion time is what the fence waits on.
//   - HardenLine is the fence backstop for lines with no dirty CPU-cache
//     copy: if the tier below holds a dirty (absorbed) copy of the line, it
//     must write it through to NVRAM now and report (done, true); if it
//     holds nothing dirty the line is already durable and it reports
//     (at, false).
//
// All methods are called under the hierarchy's interconnect lock, on the
// invoking core's goroutine.
type Mem interface {
	// ReadLine fills buf with the line at pa and returns the completion
	// time, charged to the fastest tier holding a valid copy.
	ReadLine(core int, pa memsim.PAddr, buf []byte, at engine.Cycles) engine.Cycles
	// EvictLine accepts a dirty victim line written back for capacity.
	EvictLine(core int, pa memsim.PAddr, data []byte, at engine.Cycles, cat stats.WriteCat)
	// PersistLine writes the line through to the durable image and returns
	// the completion time of the durable write.
	PersistLine(core int, pa memsim.PAddr, data []byte, at engine.Cycles, cat stats.WriteCat) engine.Cycles
	// HardenLine persists a dirty buffered copy of pa's line, if one exists
	// below the CPU caches; reports whether a write happened.
	HardenLine(core int, pa memsim.PAddr, at engine.Cycles, cat stats.WriteCat) (engine.Cycles, bool)
	// DirtyLine reports whether the tier holds a dirty (not yet durable)
	// copy of pa's line.
	DirtyLine(pa memsim.PAddr) bool
	// InjectLine updates any buffered copy of pa's line in place with data
	// just written durably (cache injection; untimed).
	InjectLine(pa memsim.PAddr, data []byte)
	// Peek resolves the freshest value of the bytes at pa without timing:
	// a buffered copy if present, else the durable image.
	Peek(pa memsim.PAddr, buf []byte)
}

// directMem couples the hierarchy straight to memsim with no buffer tier —
// the paper's bare-NVRAM model. Every method is a transparent forward;
// HardenLine reports no buffered state so flushLocked's no-dirty-copy path
// is byte-identical to the historical one.
type directMem struct {
	mem *memsim.Memory
}

// Wrap adapts a bare memsim.Memory to the Mem interface.
func Wrap(mem *memsim.Memory) Mem { return directMem{mem} }

func (d directMem) ReadLine(core int, pa memsim.PAddr, buf []byte, at engine.Cycles) engine.Cycles {
	return d.mem.ReadLine(pa, buf, at)
}

func (d directMem) EvictLine(core int, pa memsim.PAddr, data []byte, at engine.Cycles, cat stats.WriteCat) {
	d.mem.WriteLine(pa, data, at, cat)
}

func (d directMem) PersistLine(core int, pa memsim.PAddr, data []byte, at engine.Cycles, cat stats.WriteCat) engine.Cycles {
	return d.mem.WriteLine(pa, data, at, cat)
}

func (d directMem) HardenLine(core int, pa memsim.PAddr, at engine.Cycles, cat stats.WriteCat) (engine.Cycles, bool) {
	return at, false
}

func (d directMem) DirtyLine(pa memsim.PAddr) bool { return false }

func (d directMem) InjectLine(pa memsim.PAddr, data []byte) {}

func (d directMem) Peek(pa memsim.PAddr, buf []byte) { d.mem.Peek(pa, buf) }

// Hierarchy is the full multi-core cache system in front of one Memory.
//
// Concurrency: one mutex serialises every operation — the software analogue
// of the coherence interconnect, where invalidations, ownership transfers
// and L3 fills are globally ordered anyway. The mutex is above the memory
// system's locks in the lock order (the hierarchy calls into memsim while
// holding it, never the reverse).
//
// Memory traffic below L3 is issued per address to the memory system, which
// routes each transfer to its interleaved channel — misses and write-backs
// occupy only that channel's bus timeline, so simulated transfers to
// different channels overlap even though the interconnect lock orders their
// issue. With one channel this degenerates to the historical single-bus
// model.
type Hierarchy struct {
	cfg Config
	mem Mem
	st  *stats.Stats

	mu     sync.Mutex
	l1, l2 []*level
	l3     *level
	dir    map[uint64]dirEntry
}

// New builds the hierarchy described by cfg directly on top of mem (no
// buffer tier); see NewWithMem for interposing one.
func New(cfg Config, mem *memsim.Memory, st *stats.Stats) *Hierarchy {
	return NewWithMem(cfg, Wrap(mem), st)
}

// NewWithMem builds the hierarchy on top of an arbitrary memory tier.
func NewWithMem(cfg Config, mem Mem, st *stats.Stats) *Hierarchy {
	if cfg.Cores <= 0 || cfg.Cores > 64 {
		panic(fmt.Sprintf("cachesim: unsupported core count %d", cfg.Cores))
	}
	h := &Hierarchy{
		cfg: cfg,
		mem: mem,
		st:  st,
		l1:  make([]*level, cfg.Cores),
		l2:  make([]*level, cfg.Cores),
		l3:  newLevel(cfg.L3Bytes, cfg.L3Ways, cfg.L3Lat),
		dir: make(map[uint64]dirEntry),
	}
	for i := 0; i < cfg.Cores; i++ {
		h.l1[i] = newLevel(cfg.L1Bytes, cfg.L1Ways, cfg.L1Lat)
		h.l2[i] = newLevel(cfg.L2Bytes, cfg.L2Ways, cfg.L2Lat)
	}
	return h
}

// Cores returns the number of cores the hierarchy serves.
func (h *Hierarchy) Cores() int { return h.cfg.Cores }

// ---------------------------------------------------------------------------
// Directory helpers.

func (h *Hierarchy) dirGet(la uint64) dirEntry {
	if e, ok := h.dir[la]; ok {
		return e
	}
	return dirEntry{owner: -1}
}

func (h *Hierarchy) dirPut(la uint64, e dirEntry) {
	if e.sharers == 0 && e.owner < 0 {
		delete(h.dir, la)
		return
	}
	h.dir[la] = e
}

// privatePresent reports whether core still holds la in L1 or L2.
func (h *Hierarchy) privatePresent(core int, la uint64) bool {
	return h.l1[core].peek(la) != nil || h.l2[core].peek(la) != nil
}

// dropSharerIfGone removes core from la's sharer set when the line has left
// both private levels.
func (h *Hierarchy) dropSharerIfGone(core int, la uint64) {
	if h.privatePresent(core, la) {
		return
	}
	e := h.dirGet(la)
	e.sharers &^= 1 << uint(core)
	if e.owner == int8(core) {
		e.owner = -1
	}
	h.dirPut(la, e)
}

// ---------------------------------------------------------------------------
// Fill/evict plumbing.

// installL3 places data into L3 on behalf of core, evicting as needed.
func (h *Hierarchy) installL3(core int, la uint64, data *[memsim.LineBytes]byte, dirty, tx bool, at engine.Cycles) {
	if cur := h.l3.lookup(la); cur != nil {
		cur.data = *data
		cur.dirty = cur.dirty || dirty
		cur.tx = cur.tx || tx
		return
	}
	v := h.l3.victim(la)
	if v.valid && v.dirty {
		if v.tx {
			h.st.TxLineSpills++
		}
		h.mem.EvictLine(core, memsim.PAddr(v.tag)<<memsim.LineShift, v.data[:], at, stats.CatData)
	}
	h.l3.tick++
	*v = line{tag: la, valid: true, dirty: dirty, tx: tx, lru: h.l3.tick, data: *data}
}

// installL2 places data into core's L2, spilling the victim to L3.
func (h *Hierarchy) installL2(core int, la uint64, data *[memsim.LineBytes]byte, dirty, tx bool, at engine.Cycles) {
	l2 := h.l2[core]
	if cur := l2.lookup(la); cur != nil {
		cur.data = *data
		cur.dirty = cur.dirty || dirty
		cur.tx = cur.tx || tx
		return
	}
	v := l2.victim(la)
	if v.valid {
		h.evictPrivateVictim(core, v, at)
	}
	l2.tick++
	*v = line{tag: la, valid: true, dirty: dirty, tx: tx, lru: l2.tick, data: *data}
}

// evictPrivateVictim handles an L2 victim: to keep L2 inclusive of L1 the
// L1 copy is merged and invalidated, then the line spills to L3 (dirty
// victims carry their data down; clean victims are demoted victim-cache
// style so recently-used lines stay in the hierarchy).
func (h *Hierarchy) evictPrivateVictim(core int, v *line, at engine.Cycles) {
	la := v.tag
	dirty, tx := v.dirty, v.tx
	data := v.data
	if l1c := h.l1[core].peek(la); l1c != nil {
		if l1c.dirty {
			data = l1c.data
			dirty = true
			tx = tx || l1c.tx
		}
		l1c.valid = false
	}
	v.valid = false
	h.installL3(core, la, &data, dirty, tx, at)
	h.dropSharerIfGone(core, la)
}

// installL1 places data into core's L1, spilling the victim to L2.
func (h *Hierarchy) installL1(core int, la uint64, data *[memsim.LineBytes]byte, dirty, tx bool, at engine.Cycles) *line {
	l1 := h.l1[core]
	if cur := l1.lookup(la); cur != nil {
		cur.data = *data
		cur.dirty = cur.dirty || dirty
		cur.tx = cur.tx || tx
		return cur
	}
	v := l1.victim(la)
	if v.valid {
		// Spill to L2: dirty victims carry data down; clean victims not
		// already in L2 are demoted too (victim caching), so lines
		// installed directly into L1 (retags, stores) survive eviction.
		if v.dirty || h.l2[core].peek(v.tag) == nil {
			h.installL2(core, v.tag, &v.data, v.dirty, v.tx, at)
		}
		v.valid = false
	}
	l1.tick++
	*v = line{tag: la, valid: true, dirty: dirty, tx: tx, lru: l1.tick, data: *data}
	return v
}

// ---------------------------------------------------------------------------
// The value authority chain: owner's private copy > dirty L3 copy > memory.

// fetchAuthority obtains the current data for la on behalf of core,
// downgrading a remote owner if necessary. It returns the data and the
// completion time. The requesting core is not yet registered as a sharer.
func (h *Hierarchy) fetchAuthority(core int, la uint64, at engine.Cycles) ([memsim.LineBytes]byte, engine.Cycles) {
	e := h.dirGet(la)
	t := at
	if e.owner >= 0 && int(e.owner) != core {
		// Remote dirty copy: write it back to L3 and downgrade the owner
		// to a clean sharer (cache-to-cache transfer).
		o := int(e.owner)
		var data [memsim.LineBytes]byte
		var tx bool
		found := false
		if c := h.l1[o].peek(la); c != nil && c.dirty {
			data, tx, found = c.data, c.tx, true
			c.dirty = false
		}
		if c := h.l2[o].peek(la); c != nil {
			if found {
				c.data = data // propagate the fresher L1 value
			} else if c.dirty {
				data, tx, found = c.data, c.tx, true
			}
			c.dirty = false
		}
		if !found {
			panic(fmt.Sprintf("cachesim: directory owner %d has no dirty copy of %#x", o, la))
		}
		h.installL3(core, la, &data, true, tx, t)
		e.owner = -1
		e.sharers |= 1 << uint(o)
		h.dirPut(la, e)
		t += h.cfg.CohLat
	}
	if c := h.l3.lookup(la); c != nil {
		h.st.CacheHits[2]++
		return c.data, t + h.cfg.L3Lat
	}
	h.st.CacheMisses[2]++
	var buf [memsim.LineBytes]byte
	done := h.mem.ReadLine(core, memsim.PAddr(la)<<memsim.LineShift, buf[:], t+h.cfg.L3Lat)
	h.installL3(core, la, &buf, false, false, done)
	return buf, done
}

// ---------------------------------------------------------------------------
// Public operations.

// Load reads len(buf) bytes at pa into buf and returns the completion time.
// The span must stay within one cache line.
func (h *Hierarchy) loadLocked(core int, pa memsim.PAddr, buf []byte, at engine.Cycles) engine.Cycles {
	la, off := uint64(pa>>memsim.LineShift), int(pa&(memsim.LineBytes-1))
	if off+len(buf) > memsim.LineBytes {
		panic(fmt.Sprintf("cachesim: Load of %d bytes crosses line at %#x", len(buf), pa))
	}
	if c := h.l1[core].lookup(la); c != nil {
		h.st.CacheHits[0]++
		copy(buf, c.data[off:])
		return at + h.cfg.L1Lat
	}
	h.st.CacheMisses[0]++
	if c := h.l2[core].lookup(la); c != nil {
		h.st.CacheHits[1]++
		// Copy the data out before installing: installL1's spill may need
		// an L2 slot in this very set and pick c as the victim (every
		// other way can be tx-pinned), which would clobber c in place.
		data := c.data
		installed := h.installL1(core, la, &data, false, false, at)
		copy(buf, installed.data[off:])
		return at + h.cfg.L2Lat
	}
	h.st.CacheMisses[1]++
	data, done := h.fetchAuthority(core, la, at)
	h.installL2(core, la, &data, false, false, done)
	h.installL1(core, la, &data, false, false, done)
	e := h.dirGet(la)
	e.sharers |= 1 << uint(core)
	h.dirPut(la, e)
	copy(buf, data[off:])
	return done
}

// Store writes data at pa (within one line) into core's L1 with exclusive
// ownership (write-allocate) and returns the completion time. The data
// becomes durable only on write-back or Flush.
func (h *Hierarchy) storeLocked(core int, pa memsim.PAddr, data []byte, at engine.Cycles) engine.Cycles {
	la, off := uint64(pa>>memsim.LineShift), int(pa&(memsim.LineBytes-1))
	if off+len(data) > memsim.LineBytes {
		panic(fmt.Sprintf("cachesim: Store of %d bytes crosses line at %#x", len(data), pa))
	}
	c, done := h.exclusiveLine(core, la, at)
	copy(c.data[off:], data)
	c.dirty = true
	// Keep the same core's L2 copy value-coherent so a later clean L1
	// eviction can never expose stale data.
	if c2 := h.l2[core].peek(la); c2 != nil {
		c2.data = c.data
	}
	e := h.dirGet(la)
	e.owner = int8(core)
	e.sharers |= 1 << uint(core)
	h.dirPut(la, e)
	return done
}

// exclusiveLine brings la into core's L1 with all other copies invalidated,
// returning the L1 entry.
func (h *Hierarchy) exclusiveLine(core int, la uint64, at engine.Cycles) (*line, engine.Cycles) {
	t := at
	e := h.dirGet(la)
	others := e.sharers &^ (1 << uint(core))
	if others != 0 || (e.owner >= 0 && int(e.owner) != core) {
		var data [memsim.LineBytes]byte
		var tx bool
		haveRemote := false
		for o := 0; o < h.cfg.Cores; o++ {
			if o == core {
				continue
			}
			dirtyHere := false
			if c := h.l1[o].peek(la); c != nil {
				if c.dirty {
					data, tx, dirtyHere = c.data, c.tx, true
				}
				c.valid = false
			}
			if c := h.l2[o].peek(la); c != nil {
				if c.dirty && !dirtyHere {
					data, tx, dirtyHere = c.data, c.tx, true
				}
				c.valid = false
			}
			if others&(1<<uint(o)) != 0 {
				h.st.Invalidations++
			}
			if dirtyHere {
				haveRemote = true
			}
		}
		if haveRemote {
			// The remote dirty value moves into L3 so the fill below sees it.
			h.installL3(core, la, &data, true, tx, t)
		}
		e.sharers &= 1 << uint(core)
		if e.owner >= 0 && int(e.owner) != core {
			e.owner = -1
		}
		h.dirPut(la, e)
		t += h.cfg.CohLat
	}

	if c := h.l1[core].lookup(la); c != nil {
		h.st.CacheHits[0]++
		return c, t + h.cfg.L1Lat
	}
	h.st.CacheMisses[0]++
	if c := h.l2[core].lookup(la); c != nil {
		h.st.CacheHits[1]++
		// Copy out before installing — installL1's spill may clobber c
		// (see Load). Re-peek afterwards to clean the surviving L2 copy.
		data, wasDirty, wasTx := c.data, c.dirty, c.tx
		installed := h.installL1(core, la, &data, wasDirty, wasTx, t)
		if c2 := h.l2[core].peek(la); c2 != nil {
			c2.dirty = false // the L1 copy is now the freshest
		}
		return installed, t + h.cfg.L2Lat
	}
	h.st.CacheMisses[1]++
	data, done := h.fetchAuthority(core, la, t)
	h.installL2(core, la, &data, false, false, done)
	installed := h.installL1(core, la, &data, false, false, done)
	return installed, done
}

// Flush implements clwb: the most recent copy of pa's line (wherever it is)
// is written back to memory and all cached copies become clean; cached
// copies are retained. It reports whether a write actually happened and the
// completion time.
func (h *Hierarchy) flushLocked(core int, pa memsim.PAddr, at engine.Cycles, cat stats.WriteCat) (engine.Cycles, bool) {
	la := uint64(pa >> memsim.LineShift)
	var data *[memsim.LineBytes]byte
	e := h.dirGet(la)
	if e.owner >= 0 {
		o := int(e.owner)
		// Clean both private levels; L1 data wins over a stale dirty L2
		// copy (the L1 copy is always at least as fresh), and the fresh
		// value is propagated downward.
		if c := h.l1[o].peek(la); c != nil && c.dirty {
			data = &c.data
			c.dirty, c.tx = false, false
		}
		if c := h.l2[o].peek(la); c != nil {
			if data != nil {
				c.data = *data
			} else if c.dirty {
				data = &c.data
			}
			c.dirty, c.tx = false, false
		}
		e.owner = -1
		h.dirPut(la, e)
	}
	if c := h.l3.peek(la); c != nil {
		if data != nil {
			// Private copy is fresher; update L3's stale copy in place.
			c.data = *data
			c.dirty, c.tx = false, false
		} else if c.dirty {
			data = &c.data
			c.dirty, c.tx = false, false
		}
	}
	if data == nil {
		// No dirty CPU copy. A buffer tier below may still hold a dirty
		// absorbed copy; harden it so the caller's fence covers it.
		if done, wrote := h.mem.HardenLine(core, memsim.PAddr(la)<<memsim.LineShift, at, cat); wrote {
			return done, true
		}
		return at + h.cfg.L1Lat, false
	}
	done := h.mem.PersistLine(core, memsim.PAddr(la)<<memsim.LineShift, data[:], at, cat)
	return done, true
}

// MarkTx flags core's private copy of pa's line as speculative, keeping it
// pinned against eviction where possible (see victim). The line must be
// present (it was just stored to).
func (h *Hierarchy) markTxLocked(core int, pa memsim.PAddr) {
	la := uint64(pa >> memsim.LineShift)
	if c := h.l1[core].peek(la); c != nil {
		c.tx = true
	}
	if c := h.l2[core].peek(la); c != nil {
		c.tx = true
	}
}

// Retag implements SSP's line-level remap (Figure 4, steps 3-5): core's
// private copy of `from` is renamed to `to` without any write-back — the
// committed bytes of `from` stay untouched in NVRAM. Any stale cached
// copies of `to` are discarded. The caller must have loaded `from` (the
// committed copy) beforehand; Retag fetches it if needed. The renamed line
// is dirty and marked speculative.
func (h *Hierarchy) retagLocked(core int, from, to memsim.PAddr, at engine.Cycles) engine.Cycles {
	fla, tla := uint64(from>>memsim.LineShift), uint64(to>>memsim.LineShift)
	if fla == tla {
		panic("cachesim: Retag to the same line")
	}

	// A dirty non-speculative `from` copy holds data newer than NVRAM's
	// committed bytes (a non-transactional store); persist it first so the
	// rename cannot lose it (§3.2's "already been flushed" precondition).
	t := at
	if h.dirtyAnywhere(fla) {
		t, _ = h.flushLocked(core, from, t, stats.CatData)
	}

	// Fetch the committed line (shared) into this core's L1; only the L1
	// copy is renamed — clean copies of the committed data in L2/L3 and in
	// other cores remain valid for the `from` address (an abort flips the
	// current bit back and reads them again).
	var data [memsim.LineBytes]byte
	t = h.loadLocked(core, memsim.PAddr(fla)<<memsim.LineShift, data[:], t)
	if c := h.l1[core].peek(fla); c != nil {
		c.valid = false
	}
	h.dropSharerIfGone(core, fla)

	// Discard stale copies of `to` everywhere (they hold a dead speculative
	// or pre-previous-commit version; never dirty by protocol).
	h.discardLine(tla)

	h.l1[core].tick++
	v := h.l1[core].victim(tla)
	if v.valid {
		if v.dirty || h.l2[core].peek(v.tag) == nil {
			h.installL2(core, v.tag, &v.data, v.dirty, v.tx, t)
		}
		v.valid = false
	}
	*v = line{tag: tla, valid: true, dirty: true, tx: true, lru: h.l1[core].tick, data: data}
	h.dirPut(tla, dirEntry{sharers: 1 << uint(core), owner: int8(core)})
	return t
}

// discardLine invalidates every cached copy of la without write-back.
func (h *Hierarchy) discardLine(la uint64) {
	for o := 0; o < h.cfg.Cores; o++ {
		if c := h.l1[o].peek(la); c != nil {
			c.valid = false
		}
		if c := h.l2[o].peek(la); c != nil {
			c.valid = false
		}
	}
	if c := h.l3.peek(la); c != nil {
		c.valid = false
	}
	delete(h.dir, la)
}

// InjectLine updates every cached copy of pa's line in place with data the
// memory controller just wrote to NVRAM (cache injection, as DMA/DDIO
// engines do), leaving copies clean. Copies must not be dirty — the caller
// owns the line's coherence at this point. Absent lines are not installed.
func (h *Hierarchy) injectLineLocked(pa memsim.PAddr, data []byte) {
	la := uint64(pa >> memsim.LineShift)
	apply := func(c *line) {
		if c == nil {
			return
		}
		if c.dirty {
			panic(fmt.Sprintf("cachesim: InjectLine over a dirty copy of %#x", la))
		}
		copy(c.data[:], data[:memsim.LineBytes])
	}
	for o := 0; o < h.cfg.Cores; o++ {
		apply(h.l1[o].peek(la))
		apply(h.l2[o].peek(la))
	}
	apply(h.l3.peek(la))
	h.mem.InjectLine(memsim.PAddr(la)<<memsim.LineShift, data)
}

// InvalidateLine drops all cached copies of pa's line without writing back;
// used to squash speculative lines on abort.
func (h *Hierarchy) InvalidateLine(pa memsim.PAddr) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.discardLine(uint64(pa >> memsim.LineShift))
}

// WritebackInvalidate persists the freshest copy of pa's line (if dirty) and
// drops all cached copies; used before page consolidation copies frames.
func (h *Hierarchy) WritebackInvalidate(pa memsim.PAddr, at engine.Cycles, cat stats.WriteCat) (engine.Cycles, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	done, wrote := h.flushLocked(0, pa, at, cat)
	h.discardLine(uint64(pa >> memsim.LineShift))
	return done, wrote
}

// dirtyAnywhere reports whether any cached copy of la is dirty, in the CPU
// hierarchy or absorbed in the buffer tier below it.
func (h *Hierarchy) dirtyAnywhere(la uint64) bool {
	e := h.dirGet(la)
	if e.owner >= 0 {
		return true
	}
	if c := h.l3.peek(la); c != nil && c.dirty {
		return true
	}
	return h.mem.DirtyLine(memsim.PAddr(la) << memsim.LineShift)
}

// DirtyAnywhere reports whether any cached copy of pa's line is dirty
// (test/assertion helper).
func (h *Hierarchy) DirtyAnywhere(pa memsim.PAddr) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dirtyAnywhere(uint64(pa >> memsim.LineShift))
}

// Present reports whether core holds pa's line privately (test helper).
func (h *Hierarchy) Present(core int, pa memsim.PAddr) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.privatePresent(core, uint64(pa>>memsim.LineShift))
}

// debugPeekLocked is DebugPeek's body; the caller holds h.mu.
func (h *Hierarchy) debugPeekLocked(pa memsim.PAddr, buf []byte) {
	la := uint64(pa >> memsim.LineShift)
	off := int(pa & (memsim.LineBytes - 1))
	e := h.dirGet(la)
	if e.owner >= 0 {
		o := int(e.owner)
		if c := h.l1[o].peek(la); c != nil && c.dirty {
			copy(buf, c.data[off:])
			return
		}
		if c := h.l2[o].peek(la); c != nil && c.dirty {
			copy(buf, c.data[off:])
			return
		}
	}
	if c := h.l3.peek(la); c != nil && c.dirty {
		copy(buf, c.data[off:])
		return
	}
	h.mem.Peek(pa, buf)
}

// DebugValidate checks the coherence invariant: every valid cached copy of
// a line carries the authority value resolved by DebugPeek, and at most one
// core holds a dirty private copy. It returns a description of the first
// violation, or "". Test helper; its cost follows the lines cached, not the
// hierarchy's capacity.
func (h *Hierarchy) DebugValidate() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var auth [memsim.LineBytes]byte
	check := func(where string, c *line) string {
		h.debugPeekLocked(memsim.PAddr(c.tag)<<memsim.LineShift, auth[:])
		if c.data != auth {
			return fmt.Sprintf("%s line %#x: copy %v != authority %v (dirty=%v)", where, c.tag, c.data[0], auth[0], c.dirty)
		}
		return ""
	}
	for core := range h.l1 {
		for _, lv := range []*level{h.l1[core], h.l2[core]} {
			for _, c := range lv.valid() {
				if c.dirty {
					e := h.dirGet(c.tag)
					if int(e.owner) != core {
						return fmt.Sprintf("core %d holds dirty %#x but dir owner is %d", core, c.tag, e.owner)
					}
				}
				if msg := check(fmt.Sprintf("core%d", core), c); msg != "" {
					return msg
				}
			}
		}
	}
	for _, c := range h.l3.valid() {
		// A stale L3 copy is legal while a dirty private owner shadows it;
		// every read path consults the owner first.
		if e := h.dirGet(c.tag); e.owner >= 0 {
			continue
		}
		if msg := check("L3", c); msg != "" {
			return msg
		}
	}
	return ""
}

// DropAll discards the entire volatile hierarchy: the moment of power loss.
func (h *Hierarchy) DropAll() {
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.l1 {
		h.l1[i].reset()
		h.l2[i].reset()
	}
	h.l3.reset()
	h.dir = make(map[uint64]dirEntry)
}

// FlushAll writes back every dirty line (orderly shutdown; test helper).
// The write-backs are independent, so each is issued from `at` and the
// fence waits for the slowest — the drain overlaps across memory banks and
// channels instead of serialising line by line.
func (h *Hierarchy) FlushAll(at engine.Cycles, cat stats.WriteCat) engine.Cycles {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := at
	flushLevel := func(l *level) {
		for _, c := range l.valid() {
			if c.dirty {
				d, _ := h.flushLocked(0, memsim.PAddr(c.tag)<<memsim.LineShift, at, cat)
				if d > t {
					t = d
				}
			}
		}
	}
	for i := range h.l1 {
		flushLevel(h.l1[i])
		flushLevel(h.l2[i])
	}
	flushLevel(h.l3)
	return t
}

// ---------------------------------------------------------------------------
// Public entry points: each takes the interconnect lock and delegates to the
// locked implementation above.

// Load reads len(buf) bytes at pa into buf and returns the completion time.
// The span must stay within one cache line.
func (h *Hierarchy) Load(core int, pa memsim.PAddr, buf []byte, at engine.Cycles) engine.Cycles {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.loadLocked(core, pa, buf, at)
}

// Store writes data at pa (within one line) into core's L1 with exclusive
// ownership (write-allocate) and returns the completion time. The data
// becomes durable only on write-back or Flush.
func (h *Hierarchy) Store(core int, pa memsim.PAddr, data []byte, at engine.Cycles) engine.Cycles {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.storeLocked(core, pa, data, at)
}

// Flush implements clwb: the most recent copy of pa's line (wherever it is)
// is written back to memory and all cached copies become clean; cached
// copies are retained. It reports whether a write actually happened and the
// completion time.
func (h *Hierarchy) Flush(core int, pa memsim.PAddr, at engine.Cycles, cat stats.WriteCat) (engine.Cycles, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.flushLocked(core, pa, at, cat)
}

// MarkTx flags core's private copy of pa's line as speculative, keeping it
// pinned against eviction where possible (see victim). The line must be
// present (it was just stored to).
func (h *Hierarchy) MarkTx(core int, pa memsim.PAddr) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.markTxLocked(core, pa)
}

// Retag implements SSP's line-level remap (Figure 4, steps 3-5); see
// retagLocked for the protocol.
func (h *Hierarchy) Retag(core int, from, to memsim.PAddr, at engine.Cycles) engine.Cycles {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.retagLocked(core, from, to, at)
}

// InjectLine updates every cached copy of pa's line in place with data the
// memory controller just wrote to NVRAM (cache injection), leaving copies
// clean.
func (h *Hierarchy) InjectLine(pa memsim.PAddr, data []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.injectLineLocked(pa, data)
}

// DebugPeek resolves the current value of pa's line without charging timing
// or mutating cache state: owner's private copy, else a dirty L3 copy, else
// durable memory. Test and assertion helper.
func (h *Hierarchy) DebugPeek(pa memsim.PAddr, buf []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.debugPeekLocked(pa, buf)
}
