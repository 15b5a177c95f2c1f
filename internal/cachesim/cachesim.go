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
// Coherence is directory-driven: the directory names, per line held in any
// private cache, the cores holding it (sharers) and the core holding it dirty
// (owner). Invalidations, cache injection and ownership transfers visit only
// the cores it names. This relies on one invariant, which DebugValidate
// checks: every valid private copy's core is a sharer, and the owner is a
// sharer. The L3 is not inclusive — an L3 victim does not back-invalidate
// private copies — so the directory is a structure of its own, not state in
// the L3 lines.
//
// Determinism contract: coherence arbitration — ownership transfers,
// invalidation order, shared-L3 replacement — resolves in the order requests
// arrive. Serially and under the bounded-lag window scheduler one core
// executes at a time, so that order and every transfer are deterministic.
// Code here must not let host time or host scheduling influence simulated
// timing or line contents.
package cachesim

import (
	"fmt"
	"math"
	"math/bits"

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

// level is one cache array, laid out as a structure of arrays. A set's ways
// live in one block: the block's tags are contiguous (one host cache line
// for a 16-way set), its data sits apart, and everything else about the set
// is one small record — its recency order, and its valid, dirty and
// speculative (tx) ways as one bit mask each. A line is named by its index,
// block<<wbits | way; the way stride is ways rounded up to a power of two.
//
// The recency order is a permutation of the ways, one nibble per way, the
// most recent use in the low nibble; a hit or fill moves its way to the
// front and invalidation leaves the order alone. Among the valid ways of a
// set it is the order of their last uses, which is all victim choice reads:
// the first invalid way, else the least recent way without the tx flag,
// else the least recent way. At most 16 ways fit.
//
// A tag is its line's address + 1 in 32 bits, 0 while the line is invalid,
// so a level caches the lines of physical addresses below 256 GiB: fill
// panics on a line beyond, and a probe for one compares in 64 bits and finds
// nothing.
//
// A way predictor, indexed by the low bits of the line address, remembers
// where each recently found line sat; a lookup checks the predicted line's
// tag before it scans the set. A wrong or stale prediction costs one compare
// and is never trusted without it. The predictor starts at predMin entries
// and doubles whenever the lines the level holds outgrow it, up to predMax;
// a doubling re-places every held line's prediction from its tag, so a line
// predicted before it is predicted after it (unless it now shares an entry
// with another held line, as in a predictor built at the grown size).
//
// Blocks materialise on touch: a set gets a block at its first fill, so
// building a level costs its directory — one slot per setChunk consecutive
// sets, holding their block numbers once any of them is filled — and
// dropping it costs what was filled. Tags and data live in fixed-size
// chunks that never move, so nothing is copied as a level grows and a line's
// data pointer stays valid while other sets materialise:
//
//   - tags block-major, in chunks of tagChunk lines, so a set's tags are
//     contiguous for the scan;
//   - data way-major: a data chunk holds one way of dataGroup consecutive
//     blocks, found in the chunk table at (block group, way), and is
//     allocated when a line of it is first given bytes (place). victim
//     fills a set's lowest invalid way first, so way w of a group is
//     allocated only once some set of it holds w+1 lines. A sparse level —
//     the crash sweep's hold one line in each of a few dozen sets —
//     allocates the way-0 chunks of the groups it touched, 64 B per line
//     filled; a full level allocates what a block-major pool would. line is
//     one dependent load (the chunk's pointer) plus index arithmetic and the
//     table's bounds check, as tagRef is for the tags.
//
// A level built with dirtyOnly (the L3) gives bytes only to its dirty
// lines: a clean line's value is the memory tier's (Hierarchy.fetch reads
// it there), so its data chunks follow the lines filled or merged dirty,
// not the ways filled, and a clean line cannot go stale. Its line(i) is
// meaningful only while line i is dirty.
//
// The block records and the chunk tables grow by append, from room for
// blksMin blocks reserved at the level's first fill. Only the directory and
// the chunk tables hold Go pointers. A walk whose order the simulation sees
// walks sets in index order (eachValid): FlushAll issues timed write-backs
// and growPred lets a later line take a shared predictor entry, so the
// order lines are visited in is part of the simulated result. DebugValidate,
// whose order nothing sees, walks the materialised blocks (eachHeld), so
// its cost is the sets ever filled, not every set of each directory slot.
type level struct {
	sets, ways int
	pow2       bool   // sets is a power of two: index by mask, not modulo
	dirtyOnly  bool   // only dirty lines have bytes (see above)
	wbits      uint   // log2 of the way stride
	wmask      uint64 // a line index's way bits
	lruShift   uint   // 4 × (ways-1): where the least recent way sits in an order
	allWays    uint16 // a way mask with every way set

	pred []int32                              // way predictor: a line index per low line-address bits
	held int                                  // valid lines
	dir  []*[setChunk]int32                   // per set: 1 + its block, 0 while never filled; nil chunk: none filled
	blks []block                              // per block: its recency order and way masks
	tags []*[tagChunk]uint32                  // per tagChunk lines: line address + 1 per line, 0 when invalid
	data []*[dataGroup][memsim.LineBytes]byte // per (group of dataGroup blocks, way): that way's line of each block; nil until one is filled

	// scans counts the probes that searched a set's ways because the way
	// predictor missed. Only tests read it.
	scans int
}

// block is one materialised set's state beside its tags and data.
type block struct {
	order            uint64 // recency: nibble k holds the way used k-th most recently
	valid, dirty, tx uint16 // bit w is way w's flag
}

// identityOrder is a fresh block's recency order. Nibbles past the level's
// ways are never read or moved.
const identityOrder = 0xFEDCBA9876543210

// maxWays is the most ways one set can have: one nibble each in a uint64.
const maxWays = 16

// setChunk is the number of consecutive sets behind one directory slot: the
// lines of one page index exactly that many consecutive sets.
const (
	setChunkShift = memsim.PageShift - memsim.LineShift
	setChunk      = 1 << setChunkShift
)

// tagChunk is how many lines' tags one tag chunk holds (256 B): a whole
// number of blocks at any way stride, so a set's tags never straddle two
// chunks. dataGroup is how many consecutive blocks one data chunk holds a
// way of (512 B). Both are the sizes at which a crash-sweep trap point
// allocates least (BenchmarkTrapPoint's B/point).
const (
	tagChunkShift  = 6
	tagChunk       = 1 << tagChunkShift
	dataGroupShift = 3
	dataGroup      = 1 << dataGroupShift
)

// The way predictor holds one entry per line the level holds, rounded up to
// a power of two, between predMin and predMax entries (or the level's lines,
// if fewer).
const (
	predMin = 32
	predMax = 1024
)

// blksMin is how many blocks a level's first fill reserves room for, in
// the block records and both chunk tables: a machine that runs anything
// fills that many sets of each level within its first transactions, so the
// doublings below it would only be churn.
const blksMin = 32

func newLevel(bytes, ways int) *level {
	nLines := bytes / memsim.LineBytes
	sets := nLines / ways
	if sets == 0 {
		sets = 1
		ways = nLines
	}
	if ways > maxWays {
		panic(fmt.Sprintf("cachesim: %d ways in one set; at most %d are supported", ways, maxWays))
	}
	wbits := uint(bits.Len(uint(ways - 1)))
	return &level{
		sets: sets, ways: ways,
		pow2:     sets&(sets-1) == 0,
		wbits:    wbits,
		wmask:    1<<wbits - 1,
		lruShift: 4 * uint(ways-1),
		allWays:  uint16(1<<ways - 1),
		pred:     make([]int32, min(predMin, 1<<bits.Len(uint(nLines-1)))),
		dir:      make([]*[setChunk]int32, (sets+setChunk-1)/setChunk),
	}
}

// block returns set's block, or -1 while the set was never filled.
func (l *level) block(set int) int {
	if c := l.dir[set>>setChunkShift]; c != nil {
		return int(c[set&(setChunk-1)]) - 1
	}
	return -1
}

// index returns lineAddr's set.
func (l *level) index(lineAddr uint64) int {
	if l.pow2 {
		return int(lineAddr & uint64(l.sets-1))
	}
	return int(lineAddr % uint64(l.sets))
}

// peek returns the line holding lineAddr, or -1, without touching recency.
func (l *level) peek(lineAddr uint64) int {
	key := lineAddr + 1
	p := &l.pred[lineAddr&uint64(len(l.pred)-1)]
	if i := int(*p); i>>tagChunkShift < len(l.tags) && uint64(*l.tagRef(i)) == key {
		return i
	}
	b := l.block(l.index(lineAddr))
	if b < 0 {
		return -1
	}
	l.scans++
	base := b << l.wbits
	for w, t := range l.blockTags(base) {
		if uint64(t) == key {
			*p = int32(base + w)
			return base + w
		}
	}
	return -1
}

// lookup is peek that marks a hit most recently used.
func (l *level) lookup(lineAddr uint64) int {
	i := l.peek(lineAddr)
	if i >= 0 && !l.recent(i) {
		l.touch(i)
	}
	return i
}

// holds reports whether line i, a probe's earlier answer (-1: absent), still
// holds lineAddr.
func (l *level) holds(i int, lineAddr uint64) bool {
	return i >= 0 && uint64(*l.tagRef(i)) == lineAddr+1
}

// way returns line i's block and its way's bit.
func (l *level) way(i int) (*block, uint16) {
	return &l.blks[i>>l.wbits], uint16(1) << (uint64(i) & l.wmask)
}

// recent reports whether line i is its set's most recent use. Most hits
// are, and skip touch.
func (l *level) recent(i int) bool {
	return l.blks[i>>l.wbits].order&0xF == uint64(i)&l.wmask
}

// touch makes line i its set's most recent use.
func (l *level) touch(i int) {
	b := &l.blks[i>>l.wbits]
	b.order = toFront(b.order, uint64(i)&l.wmask)
}

// toFront moves way w to the front of a recency order; the ways ahead of it
// move back one place. It has no branch: w at the front stays there.
func toFront(order, w uint64) uint64 {
	// The high bit of each zero nibble of x marks where w sits; the lowest
	// is its place in the order (nibbles past the level's ways never hold a
	// way below them).
	const lo = 0x7777777777777777
	x := order ^ w*0x1111111111111111
	at := (bits.TrailingZeros64(^((x&lo + lo) | x | lo)) - 3) & 63
	ahead := uint64(1)<<at - 1 // the nibbles ahead of w
	return order&^(ahead<<4|0xF) | (order&ahead)<<4 | w
}

// victim returns the line to fill for lineAddr, materialising its set: the
// lowest invalid way if one exists, otherwise the LRU way among
// non-speculative lines, otherwise the LRU way outright. Speculative (tx)
// lines are kept cached when possible — redo-style designs must not write
// uncommitted data back in place (DHTM keeps transactional lines pinned in
// the volatile hierarchy).
func (l *level) victim(lineAddr uint64) int {
	set := l.index(lineAddr)
	b := l.block(set)
	if b < 0 {
		b = l.materialise(set)
	}
	blk, base := &l.blks[b], b<<l.wbits
	if free := l.allWays &^ blk.valid; free != 0 {
		return base + bits.TrailingZeros16(free)
	}
	if blk.tx != 0 {
		for s := int(l.lruShift); s >= 0; s -= 4 {
			if w := blk.order >> uint(s) & 0xF; blk.tx&(1<<w) == 0 {
				return base + int(w)
			}
		}
	}
	return base + int(blk.order>>l.lruShift&0xF)
}

// materialise gives set a block of invalid lines and returns it. The
// block's tags and its group's entries in the data chunk table exist after
// it; the data chunks come with the lines given bytes (place).
func (l *level) materialise(set int) int {
	b := len(l.blks)
	if l.blks == nil {
		l.blks = make([]block, 0, blksMin)
		l.tags = make([]*[tagChunk]uint32, 0, blksMin<<l.wbits>>tagChunkShift)
		l.data = make([]*[dataGroup][memsim.LineBytes]byte, 0, blksMin>>dataGroupShift<<l.wbits)
	}
	l.blks = append(l.blks, block{order: identityOrder})
	if b<<l.wbits>>tagChunkShift == len(l.tags) {
		l.tags = append(l.tags, new([tagChunk]uint32))
	}
	if g := b >> dataGroupShift << l.wbits; g == len(l.data) {
		l.data = append(l.data, make([]*[dataGroup][memsim.LineBytes]byte, 1<<l.wbits)...)
	}
	c := l.dir[set>>setChunkShift]
	if c == nil {
		c = new([setChunk]int32)
		l.dir[set>>setChunkShift] = c
	}
	c[set&(setChunk-1)] = int32(b + 1)
	return b
}

// fill installs lineAddr into line i (a victim) as its set's most recent
// use. A dirtyOnly level keeps no bytes for a clean fill.
func (l *level) fill(i int, lineAddr uint64, data *[memsim.LineBytes]byte, dirty, tx bool) {
	if lineAddr >= math.MaxUint32 {
		panic(fmt.Sprintf("cachesim: line address %#x is beyond the 32-bit tags", lineAddr))
	}
	*l.tagRef(i) = uint32(lineAddr + 1)
	if dirty || !l.dirtyOnly {
		if d := l.place(i); d != data {
			*d = *data
		}
	}
	b, m := l.way(i)
	if b.valid&m == 0 {
		b.valid |= m
		if l.held++; l.held > len(l.pred) && len(l.pred) < predMax {
			l.growPred()
		}
	}
	l.pred[lineAddr&uint64(len(l.pred)-1)] = int32(i)
	b.setFlags(m, dirty, tx)
	l.touch(i)
}

// growPred doubles the way predictor and points each held line's entry at
// it, sets in index order.
func (l *level) growPred() {
	l.pred = make([]int32, 2*len(l.pred))
	mask := uint64(len(l.pred) - 1)
	l.eachValid(func(c int) bool {
		l.pred[l.tag(c)&mask] = int32(c)
		return true
	})
}

// line returns line i's data: the chunk of way i&wmask of its block's group,
// at the block's place in the group. The chunk's table index, group<<wbits |
// way, is i>>dataGroupShift with its low wbits replaced by the way (they
// hold the top of the block's place in the group, which is below 1<<wbits).
func (l *level) line(i int) *[memsim.LineBytes]byte {
	m := int(l.wmask)
	return &l.data[i>>dataGroupShift&^m|i&m][i>>(l.wbits&63)&(dataGroup-1)]
}

// place is line for a line about to be given bytes: it allocates the
// line's data chunk first if none of its lines had bytes yet.
func (l *level) place(i int) *[memsim.LineBytes]byte {
	m := int(l.wmask)
	if c := &l.data[i>>dataGroupShift&^m|i&m]; *c == nil {
		*c = new([dataGroup][memsim.LineBytes]byte)
	}
	return l.line(i)
}

// tagRef returns where line i's tag, its line address + 1, is kept.
func (l *level) tagRef(i int) *uint32 {
	return &l.tags[i>>tagChunkShift][i&(tagChunk-1)]
}

// blockTags returns the tags of the block whose first line is base.
func (l *level) blockTags(base int) []uint32 {
	return l.tags[base>>tagChunkShift][base&(tagChunk-1):][:l.ways]
}

func (l *level) valid(i int) bool { return *l.tagRef(i) != 0 }

func (l *level) tag(i int) uint64 { return uint64(*l.tagRef(i)) - 1 }

func (l *level) invalidate(i int) {
	*l.tagRef(i) = 0
	b, m := l.way(i)
	if b.valid&m != 0 {
		b.valid &^= m
		l.held--
	}
}

func (l *level) isDirty(i int) bool {
	b, m := l.way(i)
	return b.dirty&m != 0
}

func (l *level) isTx(i int) bool {
	b, m := l.way(i)
	return b.tx&m != 0
}

func (l *level) setDirty(i int, on bool) {
	b, m := l.way(i)
	if on {
		b.dirty |= m
	} else {
		b.dirty &^= m
	}
}

func (l *level) setFlags(i int, dirty, tx bool) {
	b, m := l.way(i)
	b.setFlags(m, dirty, tx)
}

func (b *block) setFlags(m uint16, dirty, tx bool) {
	b.dirty &^= m
	b.tx &^= m
	if dirty {
		b.dirty |= m
	}
	if tx {
		b.tx |= m
	}
}

// merge updates a resident line in place with a fill's data, keeping any
// dirty or tx flag it already had. A clean fill's data is the resident
// copy's already — no dirty copy shadows a line that is cached clean — so
// only a dirty fill's data is copied.
func (l *level) merge(i int, data *[memsim.LineBytes]byte, dirty, tx bool) {
	if dirty {
		*l.place(i) = *data
	}
	l.setFlags(i, dirty || l.isDirty(i), tx || l.isTx(i))
}

// reset empties the level in time proportional to what it ever filled: it
// clears the directory and tag chunks it materialised. The chunks stay, so
// refilling allocates nothing until it exceeds what was filled before; a
// stale prediction meets a zero tag.
func (l *level) reset() {
	for _, c := range l.dir {
		if c != nil {
			clear(c[:])
		}
	}
	for _, t := range l.tags {
		clear(t[:])
	}
	l.blks = l.blks[:0]
	l.held = 0
}

// eachHeld calls fn on the level's valid lines, blocks in the order their
// sets were first filled and ways in order within a block, until fn returns
// false; it reports whether every call returned true. It walks only the
// materialised blocks and their valid masks; use it where the order is not
// part of the simulated result.
func (l *level) eachHeld(fn func(c int) bool) bool {
	for b := range l.blks {
		base := b << l.wbits
		for m := l.blks[b].valid; m != 0; m &= m - 1 {
			if !fn(base + bits.TrailingZeros16(m)) {
				return false
			}
		}
	}
	return true
}

// eachValid calls fn on the level's valid lines, sets in index order and
// ways in order within a set (see the type comment for why the order is
// fixed), until fn returns false; it reports whether every call returned
// true. fn may change a line's flags and data, not which lines are valid.
func (l *level) eachValid(fn func(c int) bool) bool {
	for _, c := range l.dir {
		if c == nil {
			continue
		}
		for _, s := range c {
			if s == 0 {
				continue
			}
			base := int(s-1) << l.wbits
			for m := l.blks[s-1].valid; m != 0; m &= m - 1 {
				if !fn(base + bits.TrailingZeros16(m)) {
					return false
				}
			}
		}
	}
	return true
}

type dirEntry struct {
	sharers uint64 // bitmask of cores with a private copy
	owner   int8   // core with a dirty private copy, or -1
}

// directory maps the line addresses held in some private cache to their
// dirEntry. It is an open-addressing table with linear probing over a
// power-of-two array kept at most half full; a deletion shifts its probe
// chain back, so no tombstones build up. It grows with the lines touched and
// reset clears it in place.
type directory struct {
	keys  []uint64 // line address + 1 per slot, 0 when empty
	vals  []dirEntry
	n     int
	shift uint // 64 - log2(len(keys))
}

const dirMinSlotsLog = 6

func newDirectory() directory {
	return directory{
		keys:  make([]uint64, 1<<dirMinSlotsLog),
		vals:  make([]dirEntry, 1<<dirMinSlotsLog),
		shift: 64 - dirMinSlotsLog,
	}
}

// home is la's preferred slot (Fibonacci hashing).
func (d *directory) home(la uint64) int { return int((la * 0x9E3779B97F4A7C15) >> d.shift) }

func (d *directory) find(la uint64) int {
	key, mask := la+1, len(d.keys)-1
	for i := d.home(la); ; i = (i + 1) & mask {
		switch d.keys[i] {
		case key:
			return i
		case 0:
			return -1
		}
	}
}

// get returns la's entry; a line no private cache holds has no sharers and
// no owner.
func (d *directory) get(la uint64) dirEntry {
	if i := d.find(la); i >= 0 {
		return d.vals[i]
	}
	return dirEntry{owner: -1}
}

// ref returns la's entry for update, inserting an empty one if absent. The
// pointer is valid until the next insertion.
func (d *directory) ref(la uint64) *dirEntry {
	if i := d.find(la); i >= 0 {
		return &d.vals[i]
	}
	if 2*(d.n+1) > len(d.keys) {
		d.grow()
	}
	mask := len(d.keys) - 1
	i := d.home(la)
	for d.keys[i] != 0 {
		i = (i + 1) & mask
	}
	d.keys[i] = la + 1
	d.vals[i] = dirEntry{owner: -1}
	d.n++
	return &d.vals[i]
}

// put stores e for la, dropping the entry when it names nobody.
func (d *directory) put(la uint64, e dirEntry) {
	if e.sharers == 0 && e.owner < 0 {
		d.del(la)
		return
	}
	*d.ref(la) = e
}

func (d *directory) del(la uint64) {
	if i := d.find(la); i >= 0 {
		d.delAt(i)
	}
}

// take removes la's entry and returns it.
func (d *directory) take(la uint64) dirEntry {
	i := d.find(la)
	if i < 0 {
		return dirEntry{owner: -1}
	}
	e := d.vals[i]
	d.delAt(i)
	return e
}

// drop removes core from la's sharers, and as its owner.
func (d *directory) drop(la uint64, core int) {
	i := d.find(la)
	if i < 0 {
		return
	}
	e := &d.vals[i]
	e.sharers &^= 1 << uint(core)
	if e.owner == int8(core) {
		e.owner = -1
	}
	if e.sharers == 0 && e.owner < 0 {
		d.delAt(i)
	}
}

// delAt deletes the entry in slot i.
func (d *directory) delAt(i int) {
	mask := len(d.keys) - 1
	for j := (i + 1) & mask; d.keys[j] != 0; j = (j + 1) & mask {
		// The entry at j may fill the hole at i iff i lies on its probe path,
		// i.e. its home is no nearer to j than i is.
		if (j-d.home(d.keys[j]-1))&mask >= (j-i)&mask {
			d.keys[i], d.vals[i] = d.keys[j], d.vals[j]
			i = j
		}
	}
	d.keys[i] = 0
	d.n--
}

func (d *directory) grow() {
	keys, vals := d.keys, d.vals
	d.keys = make([]uint64, 2*len(keys))
	d.vals = make([]dirEntry, 2*len(vals))
	d.shift--
	d.n = 0
	for i, k := range keys {
		if k != 0 {
			*d.ref(k - 1) = vals[i]
		}
	}
}

func (d *directory) reset() {
	clear(d.keys)
	d.n = 0
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
// All methods are called on the invoking core's goroutine, inside a
// hierarchy operation.
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
// HardenLine reports no buffered state so Flush's no-dirty-copy path
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
// Concurrency: every operation runs to completion before the next starts —
// the software analogue of the coherence interconnect, where invalidations,
// ownership transfers and L3 fills are globally ordered anyway. Serially and
// under the window scheduler that order is given: one core executes at a
// time, so the hierarchy takes no host lock.
//
// Memory traffic below L3 is issued per address to the memory system, which
// routes each transfer to its interleaved channel — misses and write-backs
// occupy only that channel's bus timeline, so simulated transfers to
// different channels overlap even though the interconnect orders their
// issue. With one channel this degenerates to the historical single-bus
// model.
type Hierarchy struct {
	cfg Config
	mem Mem
	st  *stats.Stats

	l1, l2 []*level
	l3     *level
	dir    directory

	// fillBuf receives memory reads — an L3 miss's, a clean L3 hit's or
	// DebugValidate's: a local array would escape to the heap through the Mem
	// interface call.
	fillBuf [memsim.LineBytes]byte
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
		l3:  newLevel(cfg.L3Bytes, cfg.L3Ways),
		dir: newDirectory(),
	}
	h.l3.dirtyOnly = true
	for i := 0; i < cfg.Cores; i++ {
		h.l1[i] = newLevel(cfg.L1Bytes, cfg.L1Ways)
		h.l2[i] = newLevel(cfg.L2Bytes, cfg.L2Ways)
	}
	return h
}

// Cores returns the number of cores the hierarchy serves.
func (h *Hierarchy) Cores() int { return h.cfg.Cores }

// ---------------------------------------------------------------------------
// Fill/evict plumbing. Every operation probes each level at most once per
// line and passes what it found down: an install is told the line's slot in
// its level, or that the level does not hold it, and never looks it up again.

// unprobed stands in for a line's slot in a level no probe has asked yet.
const unprobed = -2

// privatePresent reports whether core still holds la in L1 or L2.
func (h *Hierarchy) privatePresent(core int, la uint64) bool {
	return h.l1[core].peek(la) >= 0 || h.l2[core].peek(la) >= 0
}

// installL3 places data into L3 on behalf of core, evicting as needed, and
// returns the line. c3 is la's L3 line, or -1 when L3 does not hold it.
func (h *Hierarchy) installL3(core int, la uint64, c3 int, data *[memsim.LineBytes]byte, dirty, tx bool, at engine.Cycles) int {
	l3 := h.l3
	if c3 >= 0 {
		l3.touch(c3)
		l3.merge(c3, data, dirty, tx)
		return c3
	}
	v := l3.victim(la)
	if l3.valid(v) && l3.isDirty(v) {
		if l3.isTx(v) {
			h.st.TxLineSpills++
		}
		h.mem.EvictLine(core, memsim.PAddr(l3.tag(v))<<memsim.LineShift, l3.line(v)[:], at, stats.CatData)
	}
	l3.fill(v, la, data, dirty, tx)
	return v
}

// installL2 places data into core's L2, spilling the victim to L3, and
// returns the line. c2 is la's L2 line, or -1 when L2 does not hold it.
func (h *Hierarchy) installL2(core int, la uint64, c2 int, data *[memsim.LineBytes]byte, dirty, tx bool, at engine.Cycles) int {
	l2 := h.l2[core]
	if c2 >= 0 {
		l2.touch(c2)
		l2.merge(c2, data, dirty, tx)
		return c2
	}
	v := l2.victim(la)
	if l2.valid(v) {
		h.evictPrivateVictim(core, v, at)
	}
	l2.fill(v, la, data, dirty, tx)
	return v
}

// evictPrivateVictim handles L2 victim v: to keep L2 inclusive of L1 the L1
// copy is merged and invalidated, then the line spills to L3 (dirty victims
// carry their data down; clean victims are demoted victim-cache style so
// recently-used lines stay in the hierarchy). Both private copies are gone
// after it, so core leaves the line's sharers without another probe.
func (h *Hierarchy) evictPrivateVictim(core int, v int, at engine.Cycles) {
	l1, l2 := h.l1[core], h.l2[core]
	la := l2.tag(v)
	data, dirty, tx := l2.line(v), l2.isDirty(v), l2.isTx(v)
	if c := l1.peek(la); c >= 0 {
		if l1.isDirty(c) {
			data = l1.line(c)
			dirty = true
			tx = tx || l1.isTx(c)
		}
		l1.invalidate(c)
	}
	l2.invalidate(v)
	h.installL3(core, la, h.l3.peek(la), data, dirty, tx, at)
	h.dir.drop(la, core)
}

// installL1 places data into core's L1, which does not hold la, spilling
// the victim to L2, and returns the line. data must not be an L2 or L3 line:
// the spill may evict and refill it.
func (h *Hierarchy) installL1(core int, la uint64, data *[memsim.LineBytes]byte, dirty, tx bool, at engine.Cycles) int {
	l1 := h.l1[core]
	v := l1.victim(la)
	if l1.valid(v) {
		// Spill to L2: dirty victims carry data down; clean victims not
		// already in L2 are demoted too (victim caching), so lines
		// installed directly into L1 (retags, stores) survive eviction.
		vla, vd := l1.tag(v), l1.isDirty(v)
		if c2 := h.l2[core].peek(vla); vd || c2 < 0 {
			h.installL2(core, vla, c2, l1.line(v), vd, l1.isTx(v), at)
		}
		l1.invalidate(v)
	}
	l1.fill(v, la, data, dirty, tx)
	return v
}

// ---------------------------------------------------------------------------
// The value authority chain: owner's private copy > dirty L3 copy > memory.

// downgradeOwner writes a remote owner's dirty copy of la back to L3 on
// behalf of core and leaves the owner a clean sharer (cache-to-cache
// transfer). c3 is la's L3 line or -1. It returns la's L3 line and the time
// the data is there.
func (h *Hierarchy) downgradeOwner(core int, la uint64, c3 int, at engine.Cycles) (int, engine.Cycles) {
	e := h.dir.get(la)
	if e.owner < 0 || int(e.owner) == core {
		return c3, at
	}
	o := int(e.owner)
	l1, l2 := h.l1[o], h.l2[o]
	var src *[memsim.LineBytes]byte
	var tx bool
	if c := l1.peek(la); c >= 0 && l1.isDirty(c) {
		src, tx = l1.line(c), l1.isTx(c)
		l1.setDirty(c, false)
	}
	if c := l2.peek(la); c >= 0 {
		if src != nil {
			*l2.line(c) = *src // propagate the fresher L1 value
		} else if l2.isDirty(c) {
			src, tx = l2.line(c), l2.isTx(c)
		}
		l2.setDirty(c, false)
	}
	if src == nil {
		panic(fmt.Sprintf("cachesim: directory owner %d has no dirty copy of %#x", o, la))
	}
	c3 = h.installL3(core, la, c3, src, true, tx, at)
	e.owner = -1
	e.sharers |= 1 << uint(o)
	h.dir.put(la, e)
	return c3, at + h.cfg.CohLat
}

// fetch obtains la's data from L3 line c3, or from memory into L3 when c3 is
// -1, on behalf of core; no private cache may hold a fresher copy. A clean
// L3 hit keeps no bytes of its own: its value is the memory tier's, read
// untimed (Peek). It returns the data, staged in fillBuf (the installs that
// follow may evict the L3 line), and the completion time.
func (h *Hierarchy) fetch(core int, la uint64, c3 int, at engine.Cycles) (*[memsim.LineBytes]byte, engine.Cycles) {
	pa := memsim.PAddr(la) << memsim.LineShift
	if c3 >= 0 {
		h.l3.touch(c3)
		h.st.CacheHits[2]++
		if h.l3.isDirty(c3) {
			h.fillBuf = *h.l3.line(c3)
		} else {
			h.mem.Peek(pa, h.fillBuf[:])
		}
		return &h.fillBuf, at + h.cfg.L3Lat
	}
	h.st.CacheMisses[2]++
	done := h.mem.ReadLine(core, pa, h.fillBuf[:], at+h.cfg.L3Lat)
	h.installL3(core, la, -1, &h.fillBuf, false, false, done)
	return &h.fillBuf, done
}

// ---------------------------------------------------------------------------
// Operations.

// copyOut copies line's bytes from off into buf (off+len(buf) is within the
// line). The 8-byte word every Core.Load64 reads is one move, not a call.
func copyOut(buf []byte, line *[memsim.LineBytes]byte, off int) {
	if len(buf) == 8 {
		*(*[8]byte)(buf) = *(*[8]byte)(line[off:])
		return
	}
	copy(buf, line[off:])
}

// Load reads len(buf) bytes at pa into buf and returns the completion time.
// The span must stay within one cache line.
func (h *Hierarchy) Load(core int, pa memsim.PAddr, buf []byte, at engine.Cycles) engine.Cycles {
	la, off := uint64(pa>>memsim.LineShift), int(pa&(memsim.LineBytes-1))
	if off+len(buf) > memsim.LineBytes {
		panic(fmt.Sprintf("cachesim: Load of %d bytes crosses line at %#x", len(buf), pa))
	}
	l1 := h.l1[core]
	if c := l1.lookup(la); c >= 0 {
		h.st.CacheHits[0]++
		copyOut(buf, l1.line(c), off)
		return at + h.cfg.L1Lat
	}
	c, _, done := h.loadMiss(core, la, unprobed, at)
	copyOut(buf, l1.line(c), off)
	return done
}

// loadMiss brings la into core's L1 after an L1 miss, for reading. It
// returns la's L1 line, its L2 line (-1: none) and the completion time. c3
// is unprobed from a caller that knows nothing below L2, or la's L3 line
// (-1: none) from one that has also made sure no remote owner is left.
func (h *Hierarchy) loadMiss(core int, la uint64, c3 int, at engine.Cycles) (c1, c2 int, done engine.Cycles) {
	h.st.CacheMisses[0]++
	l2 := h.l2[core]
	if c2 = l2.lookup(la); c2 >= 0 {
		h.st.CacheHits[1]++
		// Copy the data out before installing: installL1's spill may need
		// an L2 slot in this very set and pick c2 as the victim (every
		// other way can be tx-pinned), which would clobber c2 in place and
		// drop core from la's sharers while L1 takes the line.
		data := *l2.line(c2)
		c1 = h.installL1(core, la, &data, false, false, at)
		if !l2.holds(c2, la) {
			h.dir.ref(la).sharers |= 1 << uint(core)
			c2 = -1
		}
		return c1, c2, at + h.cfg.L2Lat
	}
	h.st.CacheMisses[1]++
	if c3 == unprobed {
		c3, at = h.downgradeOwner(core, la, h.l3.peek(la), at)
	}
	data, done := h.fetch(core, la, c3, at)
	c2 = h.installL2(core, la, -1, data, false, false, done)
	c1 = h.installL1(core, la, data, false, false, done)
	h.dir.ref(la).sharers |= 1 << uint(core)
	if !l2.holds(c2, la) {
		c2 = -1
	}
	return c1, c2, done
}

// Store writes data at pa (within one line) into core's L1 with exclusive
// ownership (write-allocate) and returns the completion time. The data
// becomes durable only on write-back or Flush.
func (h *Hierarchy) Store(core int, pa memsim.PAddr, data []byte, at engine.Cycles) engine.Cycles {
	la, off := uint64(pa>>memsim.LineShift), int(pa&(memsim.LineBytes-1))
	if off+len(data) > memsim.LineBytes {
		panic(fmt.Sprintf("cachesim: Store of %d bytes crosses line at %#x", len(data), pa))
	}
	l1, l2 := h.l1[core], h.l2[core]
	c, c2 := l1.peek(la), unprobed
	var done engine.Cycles
	if c >= 0 && l1.isDirty(c) {
		// A dirty copy in this core's L1 means the directory already names
		// it owner and sole sharer (the invariant DebugValidate checks):
		// the store is a plain L1 hit with no coherence action.
		if !l1.recent(c) {
			l1.touch(c)
		}
		h.st.CacheHits[0]++
		done = at + h.cfg.L1Lat
	} else {
		c, c2, done = h.exclusiveLine(core, la, c, at)
		e := h.dir.ref(la)
		e.owner = int8(core)
		e.sharers |= 1 << uint(core)
	}
	line := l1.line(c)
	if len(data) == 8 {
		*(*[8]byte)(line[off:]) = *(*[8]byte)(data)
	} else {
		copy(line[off:], data)
	}
	l1.setDirty(c, true)
	// Keep the same core's L2 copy value-coherent so a later clean L1
	// eviction can never expose stale data.
	if c2 == unprobed {
		c2 = l2.peek(la)
	}
	if c2 >= 0 {
		*l2.line(c2) = *line
	}
	return done
}

// exclusiveLine brings la into core's L1 with all other copies invalidated.
// c1 is la's L1 line or -1. It returns la's L1 line, its L2 line (-1: none;
// unprobed after an L1 hit) and the completion time.
func (h *Hierarchy) exclusiveLine(core int, la uint64, c1 int, at engine.Cycles) (int, int, engine.Cycles) {
	t := at
	c3 := unprobed
	e := h.dir.get(la)
	// The owner is a sharer, so a remote owner makes `others` non-empty too.
	if others := e.sharers &^ (1 << uint(core)); others != 0 {
		var src *[memsim.LineBytes]byte
		var tx bool
		for m := others; m != 0; m &= m - 1 {
			o := bits.TrailingZeros64(m)
			l1, l2 := h.l1[o], h.l2[o]
			dirtyHere := false
			if c := l1.peek(la); c >= 0 {
				if l1.isDirty(c) {
					src, tx, dirtyHere = l1.line(c), l1.isTx(c), true
				}
				l1.invalidate(c)
			}
			if c := l2.peek(la); c >= 0 {
				if l2.isDirty(c) && !dirtyHere {
					src, tx = l2.line(c), l2.isTx(c)
				}
				l2.invalidate(c)
			}
			h.st.Invalidations++
		}
		if src != nil {
			// The remote dirty value moves into L3 so the fill below sees
			// it; invalidation left its bytes in place.
			c3 = h.installL3(core, la, h.l3.peek(la), src, true, tx, t)
		}
		e.sharers &= 1 << uint(core)
		if e.owner >= 0 && int(e.owner) != core {
			e.owner = -1
		}
		h.dir.put(la, e)
		t += h.cfg.CohLat
	}

	l1, l2 := h.l1[core], h.l2[core]
	if c1 >= 0 {
		l1.touch(c1)
		h.st.CacheHits[0]++
		return c1, unprobed, t + h.cfg.L1Lat
	}
	h.st.CacheMisses[0]++
	if c2 := l2.lookup(la); c2 >= 0 {
		h.st.CacheHits[1]++
		// Copy out before installing — installL1's spill may clobber c2
		// (see loadMiss). The surviving L2 copy is cleaned.
		data, wasDirty, wasTx := *l2.line(c2), l2.isDirty(c2), l2.isTx(c2)
		c1 = h.installL1(core, la, &data, wasDirty, wasTx, t)
		if !l2.holds(c2, la) {
			return c1, -1, t + h.cfg.L2Lat
		}
		l2.setDirty(c2, false) // the L1 copy is now the freshest
		return c1, c2, t + h.cfg.L2Lat
	}
	h.st.CacheMisses[1]++
	// Any remote owner's value went to L3 above.
	if c3 == unprobed {
		c3 = h.l3.peek(la)
	}
	data, done := h.fetch(core, la, c3, t)
	c2 := h.installL2(core, la, -1, data, false, false, done)
	c1 = h.installL1(core, la, data, false, false, done)
	if !l2.holds(c2, la) {
		c2 = -1
	}
	return c1, c2, done
}

// Flush implements clwb: the most recent copy of pa's line (wherever it is)
// is written back to memory and all cached copies become clean; cached
// copies are retained. It reports whether a write actually happened and the
// completion time.
func (h *Hierarchy) Flush(core int, pa memsim.PAddr, at engine.Cycles, cat stats.WriteCat) (engine.Cycles, bool) {
	la := uint64(pa >> memsim.LineShift)
	return h.flush(core, la, h.l3.peek(la), at, cat)
}

// flush is Flush of la, whose L3 line is c3 (-1: none).
func (h *Hierarchy) flush(core int, la uint64, c3 int, at engine.Cycles, cat stats.WriteCat) (engine.Cycles, bool) {
	var data *[memsim.LineBytes]byte
	if i := h.dir.find(la); i >= 0 && h.dir.vals[i].owner >= 0 {
		e := &h.dir.vals[i]
		l1, l2 := h.l1[e.owner], h.l2[e.owner]
		// Clean both private levels; L1 data wins over a stale dirty L2
		// copy (the L1 copy is always at least as fresh), and the fresh
		// value is propagated downward.
		if c := l1.peek(la); c >= 0 && l1.isDirty(c) {
			data = l1.line(c)
			l1.setFlags(c, false, false)
		}
		if c := l2.peek(la); c >= 0 {
			if data != nil {
				*l2.line(c) = *data
			} else if l2.isDirty(c) {
				data = l2.line(c)
			}
			l2.setFlags(c, false, false)
		}
		e.owner = -1
		if e.sharers == 0 {
			h.dir.delAt(i)
		}
	}
	if c3 >= 0 && (data != nil || h.l3.isDirty(c3)) {
		// The freshest dirty copy (a private one, else L3's own) goes to
		// memory below, which the now clean L3 line reads.
		if data == nil {
			data = h.l3.line(c3)
		}
		h.l3.setFlags(c3, false, false)
	}
	return h.persist(core, la, data, at, cat)
}

// persist writes data, the freshest dirty copy of la, through to memory. With
// no dirty CPU copy (data nil), a buffer tier below may still hold a dirty
// absorbed copy; it is hardened so the caller's fence covers it.
func (h *Hierarchy) persist(core int, la uint64, data *[memsim.LineBytes]byte, at engine.Cycles, cat stats.WriteCat) (engine.Cycles, bool) {
	pa := memsim.PAddr(la) << memsim.LineShift
	if data == nil {
		if done, wrote := h.mem.HardenLine(core, pa, at, cat); wrote {
			return done, true
		}
		return at + h.cfg.L1Lat, false
	}
	return h.mem.PersistLine(core, pa, data[:], at, cat), true
}

// MarkTx flags core's private copy of pa's line as speculative, keeping it
// pinned against eviction where possible (see victim). The line must be
// present (it was just stored to).
func (h *Hierarchy) MarkTx(core int, pa memsim.PAddr) {
	la := uint64(pa >> memsim.LineShift)
	for _, l := range [2]*level{h.l1[core], h.l2[core]} {
		if c := l.peek(la); c >= 0 {
			l.setFlags(c, l.isDirty(c), true)
		}
	}
}

// Retag implements SSP's line-level remap (Figure 4, steps 3-5): core's
// private copy of `from` is renamed to `to` without any write-back — the
// committed bytes of `from` stay untouched in NVRAM. Any stale cached copies
// of `to` are discarded. The caller must have loaded `from` (the committed
// copy) beforehand; Retag fetches it if needed. The renamed line is dirty and
// marked speculative.
func (h *Hierarchy) Retag(core int, from, to memsim.PAddr, at engine.Cycles) engine.Cycles {
	fla, tla := uint64(from>>memsim.LineShift), uint64(to>>memsim.LineShift)
	if fla == tla {
		panic("cachesim: Retag to the same line")
	}

	// A dirty non-speculative `from` copy holds data newer than NVRAM's
	// committed bytes (a non-transactional store); persist it first so the
	// rename cannot lose it (§3.2's "already been flushed" precondition).
	// After it `from` has no owner, and one L3 probe of `from` serves this
	// check, the flush and the fetch.
	c3 := h.l3.peek(fla)
	t := at
	if h.dir.get(fla).owner >= 0 || c3 >= 0 && h.l3.isDirty(c3) || h.mem.DirtyLine(memsim.PAddr(fla)<<memsim.LineShift) {
		t, _ = h.flush(core, fla, c3, t, stats.CatData)
	}

	// Fetch the committed line (shared) into this core's L1; only the L1
	// copy is renamed — clean copies of the committed data in L2/L3 and in
	// other cores remain valid for the `from` address (an abort flips the
	// current bit back and reads them again).
	l1, l2 := h.l1[core], h.l2[core]
	c1, c2 := l1.lookup(fla), unprobed
	if c1 >= 0 {
		h.st.CacheHits[0]++
		t += h.cfg.L1Lat
	} else {
		c1, c2, t = h.loadMiss(core, fla, c3, t)
	}
	l1.invalidate(c1)
	if c2 == unprobed {
		c2 = l2.peek(fla)
	}
	if c2 < 0 {
		h.dir.drop(fla, core)
	}

	// Discard stale copies of `to` everywhere (they hold a dead speculative
	// or pre-previous-commit version; never dirty by protocol), then install
	// the renamed line in L1. c1's bytes stay in place until a fill reuses
	// it, and the install's spill only fills lower levels.
	e := h.dir.ref(tla)
	stale := *e
	*e = dirEntry{sharers: 1 << uint(core), owner: int8(core)}
	h.discardLine(tla, stale)
	h.installL1(core, tla, l1.line(c1), true, true, t)
	return t
}

// discardLine invalidates every cached copy of la, whose directory entry
// was e, without write-back; the caller updates the directory. It returns
// the freshest dirty copy — the owner's L1 copy, else its L2 copy, else a
// dirty L3 copy — or nil; the bytes stay in place until the next fill.
func (h *Hierarchy) discardLine(la uint64, e dirEntry) *[memsim.LineBytes]byte {
	var dirty *[memsim.LineBytes]byte
	for m := e.sharers; m != 0; m &= m - 1 {
		o := bits.TrailingZeros64(m)
		for _, l := range [2]*level{h.l1[o], h.l2[o]} {
			if c := l.peek(la); c >= 0 {
				if dirty == nil && o == int(e.owner) && l.isDirty(c) {
					dirty = l.line(c)
				}
				l.invalidate(c)
			}
		}
	}
	if c := h.l3.peek(la); c >= 0 {
		if dirty == nil && h.l3.isDirty(c) {
			dirty = h.l3.line(c)
		}
		h.l3.invalidate(c)
	}
	return dirty
}

// InjectLine updates every cached copy of pa's line in place with data the
// memory controller just wrote to NVRAM (cache injection, as DMA/DDIO
// engines do), leaving copies clean. Copies must not be dirty — the caller
// owns the line's coherence at this point. Absent lines are not installed.
// A clean L3 copy has no bytes to update: it reads memory.
func (h *Hierarchy) InjectLine(pa memsim.PAddr, data []byte) {
	la := uint64(pa >> memsim.LineShift)
	apply := func(l *level, c int) {
		if c < 0 {
			return
		}
		if l.isDirty(c) {
			panic(fmt.Sprintf("cachesim: InjectLine over a dirty copy of %#x", la))
		}
		copy(l.line(c)[:], data[:memsim.LineBytes])
	}
	for m := h.dir.get(la).sharers; m != 0; m &= m - 1 {
		o := bits.TrailingZeros64(m)
		apply(h.l1[o], h.l1[o].peek(la))
		apply(h.l2[o], h.l2[o].peek(la))
	}
	if c := h.l3.peek(la); c >= 0 && h.l3.isDirty(c) {
		panic(fmt.Sprintf("cachesim: InjectLine over a dirty copy of %#x", la))
	}
	h.mem.InjectLine(memsim.PAddr(la)<<memsim.LineShift, data)
}

// dirtyAnywhere reports whether any cached copy of la is dirty, in the CPU
// hierarchy or absorbed in the buffer tier below it.
func (h *Hierarchy) dirtyAnywhere(la uint64) bool {
	if h.dir.get(la).owner >= 0 {
		return true
	}
	if c := h.l3.peek(la); c >= 0 && h.l3.isDirty(c) {
		return true
	}
	return h.mem.DirtyLine(memsim.PAddr(la) << memsim.LineShift)
}

// DebugPeek resolves the current value of pa's line without charging timing
// or mutating cache state: owner's private copy, else a dirty L3 copy, else
// durable memory. Test and assertion helper.
func (h *Hierarchy) DebugPeek(pa memsim.PAddr, buf []byte) {
	la := uint64(pa >> memsim.LineShift)
	off := int(pa & (memsim.LineBytes - 1))
	if o := int(h.dir.get(la).owner); o >= 0 {
		for _, l := range [2]*level{h.l1[o], h.l2[o]} {
			if c := l.peek(la); c >= 0 && l.isDirty(c) {
				copy(buf, l.line(c)[off:])
				return
			}
		}
	}
	if c := h.l3.peek(la); c >= 0 && h.l3.isDirty(c) {
		copy(buf, h.l3.line(c)[off:])
		return
	}
	h.mem.Peek(pa, buf)
}

// FlushAll writes back every dirty line (orderly shutdown; test helper).
// The write-backs are independent, so each is issued from `at` and the
// fence waits for the slowest — the drain overlaps across memory banks and
// channels instead of serialising line by line.
func (h *Hierarchy) FlushAll(at engine.Cycles, cat stats.WriteCat) engine.Cycles {
	t := at
	flushLevel := func(l *level) {
		l.eachValid(func(c int) bool {
			if l.isDirty(c) {
				d, _ := h.Flush(0, memsim.PAddr(l.tag(c))<<memsim.LineShift, at, cat)
				if d > t {
					t = d
				}
			}
			return true
		})
	}
	for i := range h.l1 {
		flushLevel(h.l1[i])
		flushLevel(h.l2[i])
	}
	flushLevel(h.l3)
	return t
}

// DebugValidate checks the coherence invariants: every valid private copy
// of a line carries the authority value resolved by DebugPeek (a dirty L3
// copy is that value, and a clean one has no bytes of its own); every valid
// private copy's core is a directory sharer of the line, and a dirty one's
// core is its owner; every owner is a sharer. It returns a description of
// the first violation it meets, or "". Test helper. It visits each level's
// materialised blocks, not its sets (eachHeld), and formats a message only
// for the violation it reports.
func (h *Hierarchy) DebugValidate() string {
	auth := &h.fillBuf
	msg := ""
	// check compares line c of core's level l with the authority value.
	check := func(core int, l *level, c int) bool {
		h.DebugPeek(memsim.PAddr(l.tag(c))<<memsim.LineShift, auth[:])
		if d := l.line(c); *d != *auth {
			msg = fmt.Sprintf("core%d line %#x: copy %v != authority %v (dirty=%v)", core, l.tag(c), d[0], auth[0], l.isDirty(c))
			return false
		}
		return true
	}
	for i, k := range h.dir.keys {
		if e := h.dir.vals[i]; k != 0 && e.owner >= 0 && e.sharers&(1<<uint(e.owner)) == 0 {
			return fmt.Sprintf("dir owner %d of %#x is not among its sharers %#x", e.owner, k-1, e.sharers)
		}
	}
	for core := range h.l1 {
		for _, lv := range [2]*level{h.l1[core], h.l2[core]} {
			ok := lv.eachHeld(func(c int) bool {
				e := h.dir.get(lv.tag(c))
				switch {
				case e.sharers&(1<<uint(core)) == 0:
					msg = fmt.Sprintf("core %d holds %#x but dir sharers are %#x", core, lv.tag(c), e.sharers)
					return false
				case lv.isDirty(c) && int(e.owner) != core:
					msg = fmt.Sprintf("core %d holds dirty %#x but dir owner is %d", core, lv.tag(c), e.owner)
					return false
				}
				return check(core, lv, c)
			})
			if !ok {
				return msg
			}
		}
	}
	return ""
}

// ---------------------------------------------------------------------------
// Line invalidation, test helpers and whole-hierarchy operations.

// InvalidateLine drops all cached copies of pa's line without writing back;
// used to squash speculative lines on abort.
func (h *Hierarchy) InvalidateLine(pa memsim.PAddr) {
	la := uint64(pa >> memsim.LineShift)
	h.discardLine(la, h.dir.take(la))
}

// WritebackInvalidate persists the freshest copy of pa's line (if dirty) and
// drops all cached copies; used before page consolidation copies frames.
func (h *Hierarchy) WritebackInvalidate(pa memsim.PAddr, at engine.Cycles, cat stats.WriteCat) (engine.Cycles, bool) {
	la := uint64(pa >> memsim.LineShift)
	return h.persist(0, la, h.discardLine(la, h.dir.take(la)), at, cat)
}

// DirtyAnywhere reports whether any cached copy of pa's line is dirty
// (test/assertion helper).
func (h *Hierarchy) DirtyAnywhere(pa memsim.PAddr) bool {
	return h.dirtyAnywhere(uint64(pa >> memsim.LineShift))
}

// Present reports whether core holds pa's line privately (test helper).
func (h *Hierarchy) Present(core int, pa memsim.PAddr) bool {
	return h.privatePresent(core, uint64(pa>>memsim.LineShift))
}

// DropAll discards the entire volatile hierarchy: the moment of power loss.
// Its cost follows what was cached, and it allocates nothing.
func (h *Hierarchy) DropAll() {
	for i := range h.l1 {
		h.l1[i].reset()
		h.l2[i].reset()
	}
	h.l3.reset()
	h.dir.reset()
}
