package cachesim

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
)

// The reference model: the array-of-structs cache sets with per-line LRU
// stamps, map directory and probe-every-core coherence the
// structure-of-arrays levels, their recency permutations and the
// sharer-guided directory replaced. It is kept only to hold them to it
// (TestHierarchyMatchesScanModel).

func newRefHierarchy(cfg Config, mem Mem, st *stats.Stats) *refHierarchy {
	h := &refHierarchy{
		cfg: cfg,
		mem: mem,
		st:  st,
		l1:  make([]*refLevel, cfg.Cores),
		l2:  make([]*refLevel, cfg.Cores),
		l3:  newRefLevel(cfg.L3Bytes, cfg.L3Ways, cfg.L3Lat),
		dir: make(map[uint64]refDirEntry),
	}
	for i := 0; i < cfg.Cores; i++ {
		h.l1[i] = newRefLevel(cfg.L1Bytes, cfg.L1Ways, cfg.L1Lat)
		h.l2[i] = newRefLevel(cfg.L2Bytes, cfg.L2Ways, cfg.L2Lat)
	}
	return h
}

type refLine struct {
	tag   uint64
	valid bool
	dirty bool
	tx    bool
	lru   uint64
	data  [memsim.LineBytes]byte
}

type refLevel struct {
	sets int
	ways int
	lat  engine.Cycles
	dir  []*[refSetChunk][]refLine
	tick uint64
}

const refSetChunk = memsim.PageBytes / memsim.LineBytes

func newRefLevel(bytes, ways int, lat engine.Cycles) *refLevel {
	nLines := bytes / memsim.LineBytes
	sets := nLines / ways
	if sets == 0 {
		sets = 1
		ways = nLines
	}
	return &refLevel{sets: sets, ways: ways, lat: lat, dir: make([]*[refSetChunk][]refLine, (sets+refSetChunk-1)/refSetChunk)}
}

func (l *refLevel) set(lineAddr uint64) []refLine {
	i := lineAddr % uint64(l.sets)
	if c := l.dir[i/refSetChunk]; c != nil {
		return c[i%refSetChunk]
	}
	return nil
}

func (l *refLevel) fillSet(lineAddr uint64) []refLine {
	i := lineAddr % uint64(l.sets)
	c := l.dir[i/refSetChunk]
	if c == nil {
		c = new([refSetChunk][]refLine)
		l.dir[i/refSetChunk] = c
	}
	if c[i%refSetChunk] == nil {
		c[i%refSetChunk] = make([]refLine, l.ways)
	}
	return c[i%refSetChunk]
}

func (l *refLevel) lookup(lineAddr uint64) *refLine {
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

func (l *refLevel) peek(lineAddr uint64) *refLine {
	set := l.set(lineAddr)
	for i := range set {
		if set[i].valid && set[i].tag == lineAddr {
			return &set[i]
		}
	}
	return nil
}

func (l *refLevel) victim(lineAddr uint64) *refLine {
	set := l.fillSet(lineAddr)
	var oldest, oldestNonTx *refLine
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

func (l *refLevel) reset() {
	clear(l.dir)
	l.tick = 0
}

func (l *refLevel) valid() []*refLine {
	var out []*refLine
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

type refDirEntry struct {
	sharers uint64
	owner   int8
}

type refHierarchy struct {
	cfg Config
	mem Mem
	st  *stats.Stats

	l1, l2 []*refLevel
	l3     *refLevel
	dir    map[uint64]refDirEntry
}

func (h *refHierarchy) dirGet(la uint64) refDirEntry {
	if e, ok := h.dir[la]; ok {
		return e
	}
	return refDirEntry{owner: -1}
}

func (h *refHierarchy) dirPut(la uint64, e refDirEntry) {
	if e.sharers == 0 && e.owner < 0 {
		delete(h.dir, la)
		return
	}
	h.dir[la] = e
}

func (h *refHierarchy) privatePresent(core int, la uint64) bool {
	return h.l1[core].peek(la) != nil || h.l2[core].peek(la) != nil
}

func (h *refHierarchy) dropSharerIfGone(core int, la uint64) {
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

func (h *refHierarchy) installL3(core int, la uint64, data *[memsim.LineBytes]byte, dirty, tx bool, at engine.Cycles) {
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
	*v = refLine{tag: la, valid: true, dirty: dirty, tx: tx, lru: h.l3.tick, data: *data}
}

func (h *refHierarchy) installL2(core int, la uint64, data *[memsim.LineBytes]byte, dirty, tx bool, at engine.Cycles) {
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
	*v = refLine{tag: la, valid: true, dirty: dirty, tx: tx, lru: l2.tick, data: *data}
}

func (h *refHierarchy) evictPrivateVictim(core int, v *refLine, at engine.Cycles) {
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

func (h *refHierarchy) installL1(core int, la uint64, data *[memsim.LineBytes]byte, dirty, tx bool, at engine.Cycles) *refLine {
	l1 := h.l1[core]
	if cur := l1.lookup(la); cur != nil {
		cur.data = *data
		cur.dirty = cur.dirty || dirty
		cur.tx = cur.tx || tx
		return cur
	}
	v := l1.victim(la)
	if v.valid {
		if v.dirty || h.l2[core].peek(v.tag) == nil {
			h.installL2(core, v.tag, &v.data, v.dirty, v.tx, at)
		}
		v.valid = false
	}
	l1.tick++
	*v = refLine{tag: la, valid: true, dirty: dirty, tx: tx, lru: l1.tick, data: *data}
	return v
}

func (h *refHierarchy) fetchAuthority(core int, la uint64, at engine.Cycles) ([memsim.LineBytes]byte, engine.Cycles) {
	e := h.dirGet(la)
	t := at
	if e.owner >= 0 && int(e.owner) != core {
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
				c.data = data
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

func (h *refHierarchy) loadLocked(core int, pa memsim.PAddr, buf []byte, at engine.Cycles) engine.Cycles {
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
		data := c.data
		installed := h.installL1(core, la, &data, false, false, at)
		// The spill may have evicted la's own L2 way and dropped core from
		// its sharers while L1 takes the line: register it again.
		e := h.dirGet(la)
		e.sharers |= 1 << uint(core)
		h.dirPut(la, e)
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

func (h *refHierarchy) storeLocked(core int, pa memsim.PAddr, data []byte, at engine.Cycles) engine.Cycles {
	la, off := uint64(pa>>memsim.LineShift), int(pa&(memsim.LineBytes-1))
	if off+len(data) > memsim.LineBytes {
		panic(fmt.Sprintf("cachesim: Store of %d bytes crosses line at %#x", len(data), pa))
	}
	c, done := h.exclusiveLine(core, la, at)
	copy(c.data[off:], data)
	c.dirty = true
	if c2 := h.l2[core].peek(la); c2 != nil {
		c2.data = c.data
	}
	e := h.dirGet(la)
	e.owner = int8(core)
	e.sharers |= 1 << uint(core)
	h.dirPut(la, e)
	return done
}

func (h *refHierarchy) exclusiveLine(core int, la uint64, at engine.Cycles) (*refLine, engine.Cycles) {
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
		data, wasDirty, wasTx := c.data, c.dirty, c.tx
		installed := h.installL1(core, la, &data, wasDirty, wasTx, t)
		if c2 := h.l2[core].peek(la); c2 != nil {
			c2.dirty = false
		}
		return installed, t + h.cfg.L2Lat
	}
	h.st.CacheMisses[1]++
	data, done := h.fetchAuthority(core, la, t)
	h.installL2(core, la, &data, false, false, done)
	installed := h.installL1(core, la, &data, false, false, done)
	return installed, done
}

func (h *refHierarchy) flushLocked(core int, pa memsim.PAddr, at engine.Cycles, cat stats.WriteCat) (engine.Cycles, bool) {
	la := uint64(pa >> memsim.LineShift)
	var data *[memsim.LineBytes]byte
	e := h.dirGet(la)
	if e.owner >= 0 {
		o := int(e.owner)
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
			c.data = *data
			c.dirty, c.tx = false, false
		} else if c.dirty {
			data = &c.data
			c.dirty, c.tx = false, false
		}
	}
	if data == nil {
		if done, wrote := h.mem.HardenLine(core, memsim.PAddr(la)<<memsim.LineShift, at, cat); wrote {
			return done, true
		}
		return at + h.cfg.L1Lat, false
	}
	done := h.mem.PersistLine(core, memsim.PAddr(la)<<memsim.LineShift, data[:], at, cat)
	return done, true
}

func (h *refHierarchy) markTxLocked(core int, pa memsim.PAddr) {
	la := uint64(pa >> memsim.LineShift)
	if c := h.l1[core].peek(la); c != nil {
		c.tx = true
	}
	if c := h.l2[core].peek(la); c != nil {
		c.tx = true
	}
}

func (h *refHierarchy) retagLocked(core int, from, to memsim.PAddr, at engine.Cycles) engine.Cycles {
	fla, tla := uint64(from>>memsim.LineShift), uint64(to>>memsim.LineShift)
	if fla == tla {
		panic("cachesim: Retag to the same line")
	}

	t := at
	if h.dirtyAnywhere(fla) {
		t, _ = h.flushLocked(core, from, t, stats.CatData)
	}

	var data [memsim.LineBytes]byte
	t = h.loadLocked(core, memsim.PAddr(fla)<<memsim.LineShift, data[:], t)
	if c := h.l1[core].peek(fla); c != nil {
		c.valid = false
	}
	h.dropSharerIfGone(core, fla)

	h.discardLine(tla)

	h.l1[core].tick++
	v := h.l1[core].victim(tla)
	if v.valid {
		if v.dirty || h.l2[core].peek(v.tag) == nil {
			h.installL2(core, v.tag, &v.data, v.dirty, v.tx, t)
		}
		v.valid = false
	}
	*v = refLine{tag: tla, valid: true, dirty: true, tx: true, lru: h.l1[core].tick, data: data}
	h.dirPut(tla, refDirEntry{sharers: 1 << uint(core), owner: int8(core)})
	return t
}

func (h *refHierarchy) discardLine(la uint64) {
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

func (h *refHierarchy) injectLineLocked(pa memsim.PAddr, data []byte) {
	la := uint64(pa >> memsim.LineShift)
	apply := func(c *refLine) {
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

func (h *refHierarchy) InvalidateLine(pa memsim.PAddr) {
	h.discardLine(uint64(pa >> memsim.LineShift))
}

func (h *refHierarchy) WritebackInvalidate(pa memsim.PAddr, at engine.Cycles, cat stats.WriteCat) (engine.Cycles, bool) {
	done, wrote := h.flushLocked(0, pa, at, cat)
	h.discardLine(uint64(pa >> memsim.LineShift))
	return done, wrote
}

func (h *refHierarchy) dirtyAnywhere(la uint64) bool {
	e := h.dirGet(la)
	if e.owner >= 0 {
		return true
	}
	if c := h.l3.peek(la); c != nil && c.dirty {
		return true
	}
	return h.mem.DirtyLine(memsim.PAddr(la) << memsim.LineShift)
}

func (h *refHierarchy) DirtyAnywhere(pa memsim.PAddr) bool {
	return h.dirtyAnywhere(uint64(pa >> memsim.LineShift))
}

func (h *refHierarchy) Present(core int, pa memsim.PAddr) bool {
	return h.privatePresent(core, uint64(pa>>memsim.LineShift))
}

func (h *refHierarchy) debugPeekLocked(pa memsim.PAddr, buf []byte) {
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

func (h *refHierarchy) DebugValidate() string {
	var auth [memsim.LineBytes]byte
	check := func(where string, c *refLine) string {
		h.debugPeekLocked(memsim.PAddr(c.tag)<<memsim.LineShift, auth[:])
		if c.data != auth {
			return fmt.Sprintf("%s line %#x: copy %v != authority %v (dirty=%v)", where, c.tag, c.data[0], auth[0], c.dirty)
		}
		return ""
	}
	for core := range h.l1 {
		for _, lv := range []*refLevel{h.l1[core], h.l2[core]} {
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
		if e := h.dirGet(c.tag); e.owner >= 0 {
			continue
		}
		if msg := check("L3", c); msg != "" {
			return msg
		}
	}
	return ""
}

func (h *refHierarchy) DropAll() {
	for i := range h.l1 {
		h.l1[i].reset()
		h.l2[i].reset()
	}
	h.l3.reset()
	h.dir = make(map[uint64]refDirEntry)
}

func (h *refHierarchy) FlushAll(at engine.Cycles, cat stats.WriteCat) engine.Cycles {
	t := at
	flushLevel := func(l *refLevel) {
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

func (h *refHierarchy) Load(core int, pa memsim.PAddr, buf []byte, at engine.Cycles) engine.Cycles {
	return h.loadLocked(core, pa, buf, at)
}

func (h *refHierarchy) Store(core int, pa memsim.PAddr, data []byte, at engine.Cycles) engine.Cycles {
	return h.storeLocked(core, pa, data, at)
}

func (h *refHierarchy) Flush(core int, pa memsim.PAddr, at engine.Cycles, cat stats.WriteCat) (engine.Cycles, bool) {
	return h.flushLocked(core, pa, at, cat)
}

func (h *refHierarchy) MarkTx(core int, pa memsim.PAddr) {
	h.markTxLocked(core, pa)
}

func (h *refHierarchy) Retag(core int, from, to memsim.PAddr, at engine.Cycles) engine.Cycles {
	return h.retagLocked(core, from, to, at)
}

func (h *refHierarchy) InjectLine(pa memsim.PAddr, data []byte) {
	h.injectLineLocked(pa, data)
}

func (h *refHierarchy) DebugPeek(pa memsim.PAddr, buf []byte) {
	h.debugPeekLocked(pa, buf)
}

// memEvent is one call the hierarchy made into the memory tier below it.
type memEvent struct {
	op  string
	pa  memsim.PAddr
	at  engine.Cycles
	cat stats.WriteCat
}

// recordingMem logs every call into the tier below, so two hierarchies can
// be held to the same sequence of write-backs, persists and fills.
type recordingMem struct {
	Mem
	log []memEvent
}

func (r *recordingMem) ReadLine(core int, pa memsim.PAddr, buf []byte, at engine.Cycles) engine.Cycles {
	r.log = append(r.log, memEvent{"read", pa, at, 0})
	return r.Mem.ReadLine(core, pa, buf, at)
}

func (r *recordingMem) EvictLine(core int, pa memsim.PAddr, data []byte, at engine.Cycles, cat stats.WriteCat) {
	r.log = append(r.log, memEvent{"evict", pa, at, cat})
	r.Mem.EvictLine(core, pa, data, at, cat)
}

func (r *recordingMem) PersistLine(core int, pa memsim.PAddr, data []byte, at engine.Cycles, cat stats.WriteCat) engine.Cycles {
	r.log = append(r.log, memEvent{"persist", pa, at, cat})
	return r.Mem.PersistLine(core, pa, data, at, cat)
}

// lineState is one valid line as both models can describe it. rank is the
// number of valid lines in its set used more recently: the recency state
// victim choice reads.
type lineState struct {
	tag       uint64
	dirty, tx bool
	rank      int
	data      [memsim.LineBytes]byte
}

// state describes level l of h. A clean line of a dirtyOnly level (the L3)
// has no bytes of its own, so its data is read through memory, as a clean
// L3 hit reads it: the model keeps every line's bytes, so comparing the two
// holds the memory value to the copy the L3 no longer keeps.
func (h *Hierarchy) state(l *level) []lineState {
	var out []lineState
	l.eachValid(func(c int) bool {
		// The valid ways ahead of c's in its set's recency order.
		b := l.blks[c>>l.wbits]
		rank := 0
		for o := b.order; o&0xF != uint64(c)&l.wmask; o >>= 4 {
			if b.valid&(1<<(o&0xF)) != 0 {
				rank++
			}
		}
		s := lineState{tag: l.tag(c), dirty: l.isDirty(c), tx: l.isTx(c), rank: rank}
		if l.dirtyOnly && !s.dirty {
			h.mem.Peek(memsim.PAddr(s.tag)<<memsim.LineShift, s.data[:])
		} else {
			s.data = *l.line(c)
		}
		out = append(out, s)
		return true
	})
	return out
}

func (l *refLevel) state() []lineState {
	var out []lineState
	for _, ch := range l.dir {
		if ch == nil {
			continue
		}
		for _, set := range ch {
			for _, c := range set {
				if !c.valid {
					continue
				}
				rank := 0
				for _, d := range set {
					if d.valid && d.lru > c.lru {
						rank++
					}
				}
				out = append(out, lineState{c.tag, c.dirty, c.tx, rank, c.data})
			}
		}
	}
	return out
}

// TestHierarchyMatchesScanModel drives the hierarchy and the reference
// model with the same seeded sequences of loads, stores, flushes, retags,
// MarkTx, injections, invalidations, write-back-invalidations and power
// losses on four cores, with caches of a few lines so that eviction, victim
// demotion, tx pinning and cross-core transfers happen all the time. After
// every operation the two must agree on the returned values, the counters,
// the calls made into memory, every line's resolved value, and the contents,
// flags and recency ranks of every level in set-index order; the hierarchy's
// own invariant check must pass.
func TestHierarchyMatchesScanModel(t *testing.T) {
	shapes := []Config{
		// Power-of-two sets everywhere.
		{Cores: 4, L1Bytes: 256, L1Ways: 2, L1Lat: 4, L2Bytes: 512, L2Ways: 2, L2Lat: 6, L3Bytes: 2048, L3Ways: 4, L3Lat: 27, CohLat: 20},
		// Three L3 sets (the modulo index), a one-set L1.
		{Cores: 4, L1Bytes: 128, L1Ways: 2, L1Lat: 4, L2Bytes: 512, L2Ways: 4, L2Lat: 6, L3Bytes: 768, L3Ways: 4, L3Lat: 27, CohLat: 20},
		// Three ways (a padded way stride), a fully associative L1.
		{Cores: 4, L1Bytes: 192, L1Ways: 8, L1Lat: 4, L2Bytes: 384, L2Ways: 3, L2Lat: 6, L3Bytes: 1536, L3Ways: 3, L3Lat: 27, CohLat: 20},
	}
	// Seeds 10, 11 and 19 drive an L2-hit Load whose L1 spill evicts the
	// loaded line's own L2 way.
	seeds := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 19}
	for si, cfg := range shapes {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("shape%d/seed%d", si, seed), func(t *testing.T) {
				matchScanModel(t, cfg, seed, 3000)
			})
		}
	}
}

func matchScanModel(t *testing.T, cfg Config, seed uint64, ops int) {
	mcfg := memsim.DefaultConfig()
	mcfg.DRAMBytes = 1 << 20
	mcfg.NVRAMBytes = 1 << 20
	gst, wst := &stats.Stats{}, &stats.Stats{}
	gm, wm := memsim.New(mcfg, gst), memsim.New(mcfg, wst)
	gmem, wmem := &recordingMem{Mem: Wrap(gm)}, &recordingMem{Mem: Wrap(wm)}
	got, want := NewWithMem(cfg, gmem, gst), newRefHierarchy(cfg, wmem, wst)

	// Lines on two pages, so a retag can move a line between its page's
	// frames the way SSP does.
	const nLines = 24
	lineAt := func(i int) memsim.PAddr {
		return mcfg.NVRAMBase + memsim.PAddr(i/12)*memsim.PageBytes + memsim.PAddr(i%12)*memsim.LineBytes
	}
	rng := engine.NewRNG(seed)
	var at [4]engine.Cycles
	gbuf, wbuf := make([]byte, memsim.LineBytes), make([]byte, memsim.LineBytes)
	for op := 0; op < ops; op++ {
		core := rng.Intn(cfg.Cores)
		i := rng.Intn(nLines)
		pa := lineAt(i)
		off := memsim.PAddr(8 * rng.Intn(8))
		var what string
		var g, w engine.Cycles
		switch r := rng.Intn(100); {
		case r < 35:
			what = "Load"
			g = got.Load(core, pa+off, gbuf[:8], at[core])
			w = want.Load(core, pa+off, wbuf[:8], at[core])
			if string(gbuf[:8]) != string(wbuf[:8]) {
				t.Fatalf("op %d: Load(%d, %#x) read %v; model %v", op, core, pa+off, gbuf[:8], wbuf[:8])
			}
		case r < 65:
			what = "Store"
			v := []byte{byte(op), byte(op >> 8), byte(core), byte(seed)}
			g = got.Store(core, pa+off, v, at[core])
			w = want.Store(core, pa+off, v, at[core])
		case r < 75:
			what = "Flush"
			var gw, ww bool
			g, gw = got.Flush(core, pa, at[core], stats.CatData)
			w, ww = want.Flush(core, pa, at[core], stats.CatData)
			if gw != ww {
				t.Fatalf("op %d: Flush wrote %v; model %v", op, gw, ww)
			}
		case r < 85:
			what = "Retag"
			to := lineAt((i + 12) % nLines)
			g = got.Retag(core, pa, to, at[core])
			w = want.Retag(core, pa, to, at[core])
		case r < 89:
			what = "MarkTx"
			got.MarkTx(core, pa)
			want.MarkTx(core, pa)
		case r < 93:
			what = "InjectLine"
			if want.DirtyAnywhere(pa) {
				continue // injection over a dirty copy is a protocol error
			}
			// The memory controller writes the line durably, then injects it.
			var data [memsim.LineBytes]byte
			data[0], data[63] = byte(op), byte(op>>8)
			gm.WriteLine(pa, data[:], at[core], stats.CatConsolidation)
			wm.WriteLine(pa, data[:], at[core], stats.CatConsolidation)
			got.InjectLine(pa, data[:])
			want.InjectLine(pa, data[:])
		case r < 96:
			what = "InvalidateLine"
			got.InvalidateLine(pa)
			want.InvalidateLine(pa)
		case r < 98:
			what = "WritebackInvalidate"
			var gw, ww bool
			g, gw = got.WritebackInvalidate(pa, at[core], stats.CatData)
			w, ww = want.WritebackInvalidate(pa, at[core], stats.CatData)
			if gw != ww {
				t.Fatalf("op %d: WritebackInvalidate wrote %v; model %v", op, gw, ww)
			}
		case r < 99:
			what = "FlushAll"
			g = got.FlushAll(at[core], stats.CatData)
			w = want.FlushAll(at[core], stats.CatData)
		default:
			what = "DropAll"
			got.DropAll()
			want.DropAll()
		}
		if g != w {
			t.Fatalf("op %d: %s(core %d, %#x) returned %d; model %d", op, what, core, pa, g, w)
		}
		if g > at[core] {
			at[core] = g
		}
		if *gst != *wst {
			t.Fatalf("op %d: %s: stats diverge\n got %+v\nwant %+v", op, what, *gst, *wst)
		}
		if !slices.Equal(gmem.log, wmem.log) {
			t.Fatalf("op %d: %s: memory calls diverge\n got %v\nwant %v", op, what, gmem.log, wmem.log)
		}
		for j := 0; j < nLines; j++ {
			got.DebugPeek(lineAt(j), gbuf)
			want.DebugPeek(lineAt(j), wbuf)
			if string(gbuf) != string(wbuf) {
				t.Fatalf("op %d: %s: line %#x resolves to %v; model %v", op, what, lineAt(j), gbuf[:8], wbuf[:8])
			}
		}
		for c := 0; c < cfg.Cores; c++ {
			for lv, pair := range [2]struct {
				got  *level
				want *refLevel
			}{{got.l1[c], want.l1[c]}, {got.l2[c], want.l2[c]}} {
				if gs, ws := got.state(pair.got), pair.want.state(); !slices.Equal(gs, ws) {
					t.Fatalf("op %d: %s: core %d L%d holds %v; model %v", op, what, c, lv+1, gs, ws)
				}
			}
		}
		if gs, ws := got.state(got.l3), want.l3.state(); !slices.Equal(gs, ws) {
			t.Fatalf("op %d: %s: L3 holds %v; model %v", op, what, gs, ws)
		}
		if msg := got.DebugValidate(); msg != "" {
			t.Fatalf("op %d: %s: %s", op, what, msg)
		}
	}
}

// The directory-guided probes rely on every private copy's core being a
// sharer and the owner being a sharer; DebugValidate must report either
// being broken.
func TestDebugValidateReportsDirectoryCorruption(t *testing.T) {
	build := func() (*Hierarchy, uint64) {
		h, mem, _ := testSetup(3)
		pa := nv(mem, 0)
		buf := make([]byte, 8)
		h.Load(0, pa, buf, 0)
		h.Load(1, pa, buf, 0)
		h.Store(2, nv(mem, 64), []byte{1}, 0)
		if msg := h.DebugValidate(); msg != "" {
			t.Fatalf("intact hierarchy: %s", msg)
		}
		return h, uint64(pa >> memsim.LineShift)
	}

	h, la := build()
	e := h.dir.get(la)
	e.sharers &^= 1 << 1
	h.dir.put(la, e)
	if msg := h.DebugValidate(); msg == "" {
		t.Error("a private copy whose core is not a sharer went unreported")
	}

	h, la = build()
	dirty := la + 1
	e = h.dir.get(dirty)
	e.sharers = 1 << 0 // core 2 still owns it
	h.dir.put(dirty, e)
	if msg := h.DebugValidate(); msg == "" {
		t.Error("an owner outside the sharer set went unreported")
	}
}

// The crash oracles run DebugValidate twice per trap point, so it formats a
// message only for the violation it reports: an intact hierarchy checks
// without allocating, and a corrupt dirty L3 copy (the authority the
// private copies are held to) or a stale private copy is still named.
func TestDebugValidateAllocatesOnlyToReport(t *testing.T) {
	h, mem, _ := testSetup(2)
	buf := make([]byte, 8)
	for i := uint64(0); i < 64; i++ {
		pa := nv(mem, i*memsim.LineBytes)
		h.Store(int(i%2), pa, buf, 0)
		h.Load(int(1-i%2), pa, buf, 0)
	}
	if n := testing.AllocsPerRun(10, func() {
		if msg := h.DebugValidate(); msg != "" {
			t.Fatalf("intact hierarchy: %s", msg)
		}
	}); n != 0 {
		t.Errorf("DebugValidate of an intact hierarchy allocated %.1f times", n)
	}

	// Core 1's load moves core 0's dirty copy into L3 (a cache-to-cache
	// transfer): L3 holds the line dirty, both cores clean copies.
	pa := nv(mem, 100*memsim.LineBytes)
	la := uint64(pa >> memsim.LineShift)
	h.Store(0, pa, []byte{0x5A}, 0)
	h.Load(1, pa, buf, 0)
	c := h.l3.peek(la)
	if c < 0 || !h.l3.isDirty(c) {
		t.Fatal("the transfer left no dirty L3 copy")
	}
	h.l3.line(c)[0] ^= 0xFF
	if msg, want := h.DebugValidate(), fmt.Sprintf("core0 line %#x: copy ", la); !strings.HasPrefix(msg, want) {
		t.Errorf("corrupt dirty L3 copy reported as %q, want prefix %q", msg, want)
	}
	h.l3.line(c)[0] ^= 0xFF
	if msg := h.DebugValidate(); msg != "" {
		t.Fatalf("restored L3 copy: %s", msg)
	}
	c = h.l1[0].peek(la)
	h.l1[0].line(c)[0] ^= 0xFF
	if msg, want := h.DebugValidate(), fmt.Sprintf("core0 line %#x: copy ", la); !strings.HasPrefix(msg, want) {
		t.Errorf("stale private copy reported as %q, want prefix %q", msg, want)
	}
}

// DropAll allocates nothing and a refill of what was cached before reuses
// the materialised sets: the trap sweep power-cycles at every trap point.
func TestDropAllAllocatesNothing(t *testing.T) {
	h, mem, _ := testSetup(2)
	buf := make([]byte, 8)
	fill := func() {
		for i := uint64(0); i < 512; i++ {
			pa := nv(mem, i*memsim.LineBytes)
			h.Store(int(i%2), pa, buf, 0)
			h.Load(int(1-i%2), pa, buf, 0)
		}
	}
	round := func() { h.DropAll(); fill() }
	// Each refill's write-backs queue behind the previous rounds' in the
	// memory's occupancy rings, which grow with the simulated span they
	// cover until it passes their history bound. Warm them up until a batch
	// of rounds allocates nothing: the guard is on the hierarchy.
	warm := 0
	for ; warm < 100 && testing.AllocsPerRun(10, round) != 0; warm++ {
	}
	if warm == 100 {
		t.Fatal("the memory's occupancy rings never stopped growing")
	}
	if n := testing.AllocsPerRun(10, round); n != 0 {
		t.Errorf("DropAll and refill allocated %.1f times per run", n)
	}
}

// An L1 hit allocates nothing, loaded or stored.
func TestL1HitAllocatesNothing(t *testing.T) {
	h, mem, _ := testSetup(1)
	buf := make([]byte, 8)
	pa := nv(mem, 128)
	h.Store(0, pa, buf, 0)
	if n := testing.AllocsPerRun(100, func() {
		h.Load(0, pa, buf, 0)
		h.Store(0, pa, buf, 0)
	}); n != 0 {
		t.Errorf("an L1 hit allocated %.1f times", n)
	}
}
