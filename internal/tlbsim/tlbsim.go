// Package tlbsim models the per-core data-TLB hierarchy that SSP extends: a
// 64-entry L1 DTLB (Table 2) backed by a 1024-entry L2 STLB (§4.3 sizes the
// SSP metadata cost for exactly this configuration). The two levels are
// exclusive; a page is TLB-resident while it lives in either. The backend
// learns about final departures through OnEvict — SSP uses that to maintain
// the per-page TLB reference counts that drive page consolidation (§3.4),
// so the STLB's reach is what lets consolidation batch many transactions.
package tlbsim

import (
	"math/bits"

	"repro/internal/memsim"
	"repro/internal/stats"
)

// VPN is a virtual page number (virtual address >> 12).
type VPN uint64

// node is one translation, linked by index into its level's recency list.
type node struct {
	vpn        VPN
	ppn        memsim.PAddr
	prev, next int32
}

// nilNode ends a recency list and marks an empty index slot.
const nilNode = int32(-1)

// lruCache is one fully associative, true-LRU TLB level of fixed capacity,
// held in arrays: the entries form a doubly linked recency list by index
// (head most recent), and an open-addressing table maps a VPN to its entry
// (linear probing over a power-of-two table at most half full; a removal
// shifts its probe chain back, so no tombstones build up). The entry array
// grows as entries are first inserted, up to the capacity, and the index
// doubles as the entries outgrow half of it, up to twice the capacity; both
// keep their storage across clear, which empties the level at the cost of
// the entries it holds.
type lruCache struct {
	cap        int
	n          int
	head, tail int32
	free       int32   // removed entries, linked through next; insert reuses them before growing nodes
	nodes      []node  // the entries handed out since the last clear
	index      []int32 // entry per slot, nilNode when empty
	shift      uint    // 64 - log2(len(index))
}

// minIndexSlots is the index size a level starts with.
const minIndexSlots = 16

func newLRUCache(capacity int) *lruCache {
	c := &lruCache{cap: capacity, shift: 64, head: nilNode, tail: nilNode, free: nilNode}
	c.resize(minIndexSlots)
	return c
}

// resize rebuilds the index with size slots (a power of two), re-placing
// every held entry.
func (c *lruCache) resize(size int) {
	c.index = make([]int32, size)
	for i := range c.index {
		c.index[i] = nilNode
	}
	c.shift = 64 - uint(bits.Len(uint(size-1)))
	mask := size - 1
	for e := c.head; e != nilNode; e = c.nodes[e].next {
		i := c.home(c.nodes[e].vpn)
		for c.index[i] != nilNode {
			i = (i + 1) & mask
		}
		c.index[i] = e
	}
}

// home is vpn's preferred index slot (Fibonacci hashing).
func (c *lruCache) home(vpn VPN) int {
	return int((uint64(vpn) * 0x9E3779B97F4A7C15) >> c.shift)
}

// find returns the index slot holding vpn's entry, or -1.
func (c *lruCache) find(vpn VPN) int {
	mask := len(c.index) - 1
	for i := c.home(vpn); ; i = (i + 1) & mask {
		e := c.index[i]
		if e == nilNode {
			return -1
		}
		if c.nodes[e].vpn == vpn {
			return i
		}
	}
}

// unindex empties index slot i, moving later members of its probe chain back
// so that every entry stays reachable from its home slot.
func (c *lruCache) unindex(i int) {
	mask := len(c.index) - 1
	for j := (i + 1) & mask; c.index[j] != nilNode; j = (j + 1) & mask {
		// The entry at j may fill the hole at i iff i lies on its probe path,
		// i.e. its home is no nearer to j than i is.
		if (j-c.home(c.nodes[c.index[j]].vpn))&mask >= (j-i)&mask {
			c.index[i] = c.index[j]
			i = j
		}
	}
	c.index[i] = nilNode
}

func (c *lruCache) unlink(e int32) {
	n := &c.nodes[e]
	if n.prev != nilNode {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nilNode {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

func (c *lruCache) pushFront(e int32) {
	n := &c.nodes[e]
	n.prev, n.next = nilNode, c.head
	if c.head != nilNode {
		c.nodes[c.head].prev = e
	} else {
		c.tail = e
	}
	c.head = e
}

// get returns vpn's entry and refreshes its recency, or nilNode. A hit on
// the most recent entry needs neither the index nor the list.
func (c *lruCache) get(vpn VPN) int32 {
	if e := c.head; e != nilNode && c.nodes[e].vpn == vpn {
		return e
	}
	i := c.find(vpn)
	if i < 0 {
		return nilNode
	}
	e := c.index[i]
	c.unlink(e)
	c.pushFront(e)
	return e
}

// peek returns vpn's entry without touching recency, or nilNode.
func (c *lruCache) peek(vpn VPN) int32 {
	if i := c.find(vpn); i >= 0 {
		return c.index[i]
	}
	return nilNode
}

// insert adds vpn (not present) as the most recent entry. When the level is
// full the least recent entry makes room and is returned (ok true).
func (c *lruCache) insert(vpn VPN, ppn memsim.PAddr) (victim node, ok bool) {
	if c.n == c.cap {
		victim, ok = c.nodes[c.tail], true
		c.remove(victim.vpn)
	}
	if 2*(c.n+1) > len(c.index) {
		c.resize(2 * len(c.index))
	}
	var e int32
	if c.free != nilNode {
		e = c.free
		c.free = c.nodes[e].next
		c.nodes[e] = node{vpn: vpn, ppn: ppn}
	} else {
		e = int32(len(c.nodes))
		c.nodes = append(c.nodes, node{vpn: vpn, ppn: ppn})
	}
	c.pushFront(e)
	mask := len(c.index) - 1
	i := c.home(vpn)
	for c.index[i] != nilNode {
		i = (i + 1) & mask
	}
	c.index[i] = e
	c.n++
	return victim, ok
}

// remove deletes vpn if present, returning its translation.
func (c *lruCache) remove(vpn VPN) (memsim.PAddr, bool) {
	i := c.find(vpn)
	if i < 0 {
		return 0, false
	}
	e := c.index[i]
	c.unindex(i)
	c.unlink(e)
	c.nodes[e].next = c.free
	c.free = e
	c.n--
	return c.nodes[e].ppn, true
}

// clear empties the level. Each held entry's index slot is found by
// walking from its home slot to the slot naming it: slots emptied earlier in
// the walk may lie on the way, but none lies beyond it.
func (c *lruCache) clear() {
	mask := len(c.index) - 1
	for e := c.head; e != nilNode; e = c.nodes[e].next {
		i := c.home(c.nodes[e].vpn)
		for c.index[i] != e {
			i = (i + 1) & mask
		}
		c.index[i] = nilNode
	}
	c.nodes = c.nodes[:0]
	c.n = 0
	c.head, c.tail, c.free = nilNode, nilNode, nilNode
}

// appendResident appends the level's VPNs, most recent first.
func (c *lruCache) appendResident(out []VPN) []VPN {
	for e := c.head; e != nilNode; e = c.nodes[e].next {
		out = append(out, c.nodes[e].vpn)
	}
	return out
}

// TLB is one core's translation hierarchy.
type TLB struct {
	l1 *lruCache
	l2 *lruCache // nil when the STLB is disabled
	st *stats.Stats

	// OnEvict fires when a translation leaves the hierarchy entirely
	// (capacity eviction from the last level, or explicit Invalidate).
	OnEvict func(vpn VPN)
}

// New returns a single-level TLB with the given entry count (test configs
// and ablations).
func New(entries int, st *stats.Stats) *TLB {
	return NewTwoLevel(entries, 0, st)
}

// NewTwoLevel returns an L1 DTLB of l1Entries backed by an exclusive L2
// STLB of l2Entries (0 disables the second level).
func NewTwoLevel(l1Entries, l2Entries int, st *stats.Stats) *TLB {
	if l1Entries <= 0 {
		panic("tlbsim: l1 entries must be positive")
	}
	t := &TLB{l1: newLRUCache(l1Entries), st: st}
	if l2Entries > 0 {
		t.l2 = newLRUCache(l2Entries)
	}
	return t
}

// Size returns the total entry capacity across levels.
func (t *TLB) Size() int {
	if t.l2 == nil {
		return t.l1.cap
	}
	return t.l1.cap + t.l2.cap
}

// Lookup resolves vpn. level reports where it hit (1 = L1 DTLB, 2 = L2
// STLB, 0 = miss); an L2 hit promotes the entry to L1, demoting the L1
// victim into the STLB.
func (t *TLB) Lookup(vpn VPN) (ppn memsim.PAddr, level int, hit bool) {
	if e := t.l1.get(vpn); e != nilNode {
		t.st.TLBHits++
		return t.l1.nodes[e].ppn, 1, true
	}
	if t.l2 != nil {
		if ppn, ok := t.l2.remove(vpn); ok {
			t.st.TLB2Hits++
			t.promote(vpn, ppn)
			return ppn, 2, true
		}
	}
	t.st.TLBMisses++
	return 0, 0, false
}

// promote inserts a translation into L1, demoting L1's victim to the STLB;
// an STLB overflow leaves the hierarchy.
func (t *TLB) promote(vpn VPN, ppn memsim.PAddr) {
	victim, ok := t.l1.insert(vpn, ppn)
	if !ok {
		return
	}
	if t.l2 == nil {
		t.evicted(victim.vpn)
		return
	}
	if out, ok := t.l2.insert(victim.vpn, victim.ppn); ok {
		t.evicted(out.vpn)
	}
}

func (t *TLB) evicted(vpn VPN) {
	t.st.TLBEvictions++
	if t.OnEvict != nil {
		t.OnEvict(vpn)
	}
}

// Contains reports whether vpn is resident in either level, without
// touching recency or statistics.
func (t *TLB) Contains(vpn VPN) bool {
	if t.l1.peek(vpn) != nilNode {
		return true
	}
	return t.l2 != nil && t.l2.peek(vpn) != nilNode
}

// Insert installs a translation into L1 (refreshing it in place if already
// resident anywhere).
func (t *TLB) Insert(vpn VPN, ppn memsim.PAddr) {
	if e := t.l1.get(vpn); e != nilNode {
		t.l1.nodes[e].ppn = ppn
		return
	}
	if t.l2 != nil {
		t.l2.remove(vpn)
	}
	t.promote(vpn, ppn)
}

// UpdatePPN rewrites the cached translation for vpn if resident.
func (t *TLB) UpdatePPN(vpn VPN, ppn memsim.PAddr) {
	if e := t.l1.peek(vpn); e != nilNode {
		t.l1.nodes[e].ppn = ppn
		return
	}
	if t.l2 != nil {
		if e := t.l2.peek(vpn); e != nilNode {
			t.l2.nodes[e].ppn = ppn
		}
	}
}

// Invalidate removes vpn from the hierarchy, firing the eviction callback
// if it was resident.
func (t *TLB) Invalidate(vpn VPN) {
	if _, ok := t.l1.remove(vpn); ok {
		t.evicted(vpn)
		return
	}
	if t.l2 != nil {
		if _, ok := t.l2.remove(vpn); ok {
			t.evicted(vpn)
		}
	}
}

// Drop clears the hierarchy without firing callbacks — power failure (the
// refcounts it would maintain are volatile and vanish too). It allocates
// nothing.
func (t *TLB) Drop() {
	t.l1.clear()
	if t.l2 != nil {
		t.l2.clear()
	}
}

// Resident returns the currently resident VPNs, L1 then L2, each most
// recent first (test helper).
func (t *TLB) Resident() []VPN {
	out := t.l1.appendResident(nil)
	if t.l2 != nil {
		out = t.l2.appendResident(out)
	}
	return out
}
