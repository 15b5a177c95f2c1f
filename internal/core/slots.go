package core

import (
	"math/bits"
	"slices"

	"repro/internal/engine"
	"repro/internal/tlbsim"
)

// This file manages the persistent slot array's allocation state: free-slot
// handout, eviction of quiescent entries, and the release records that keep
// recovery from resurrecting stale associations.
//
// The slot array is formatted lazily (§4.1.2 "Free Space Management" assigns
// every slot its spare frame up front). NewSSP reserves frames
// [0, Entries) in one FrameAlloc step, frame sid being slot sid's spare, and
// writes no slot line: a line NVRAM never held means exactly the formatted
// state (formatted), and recovery decodes only the lines it holds. The slot
// tables reach as far as the highest slot handed out; every slot from
// len(slotShadow) up is in the formatted state, and those slots are handed
// out in ascending order after every freed one.

// formatted is slot sid's state until its first journal record or
// checkpoint: free, holding the spare frame NewSSP reserved for it.
func (s *SSP) formatted(sid int) slotState {
	return slotState{vpn: -1, ppn1: s.env.Layout.FrameAddr(sid)}
}

// shadowOf returns slot sid's journal-consistent state, tables or not.
func (s *SSP) shadowOf(sid int) slotState {
	if sid < len(s.slotShadow) {
		return s.slotShadow[sid]
	}
	return s.formatted(sid)
}

// growSlots extends the slot tables to n slots, each new one formatted, in
// one step per table.
func (s *SSP) growSlots(n int) {
	from := len(s.slotShadow)
	if n <= from {
		return
	}
	s.slotShadow = slices.Grow(s.slotShadow, n-from)[:n]
	for sid := from; sid < n; sid++ {
		s.slotShadow[sid] = s.formatted(sid)
	}
	s.slotOwner = append(s.slotOwner, make([]*pageMeta, n-from)...)
	s.slotBarrier = append(s.slotBarrier, make([]journalRef, n-from)...)
}

// resetSlots empties the slot tables and the free-slot stack (power loss,
// recovery), at the cost of the slots handed out.
func (s *SSP) resetSlots() {
	clear(s.slotOwner)
	s.slotShadow, s.slotOwner, s.slotBarrier = s.slotShadow[:0], s.slotOwner[:0], s.slotBarrier[:0]
	s.freeSlots = s.freeSlots[:0]
}

// takeFreeSlot hands out the most recently freed slot, else the lowest slot
// never handed out; ok is false when every slot is taken.
func (s *SSP) takeFreeSlot() (sid int, ok bool) {
	if n := len(s.freeSlots); n > 0 {
		sid = s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		return sid, true
	}
	if sid = len(s.slotShadow); sid < s.cfg.Entries {
		s.growSlots(sid + 1)
		return sid, true
	}
	return 0, false
}

// freeOrder lists the free slots in the order takeFreeSlot hands them out.
func (s *SSP) freeOrder() []int {
	out := make([]int, 0, len(s.freeSlots)+s.cfg.Entries-len(s.slotShadow))
	for i := len(s.freeSlots) - 1; i >= 0; i-- {
		out = append(out, s.freeSlots[i])
	}
	for sid := len(s.slotShadow); sid < s.cfg.Entries; sid++ {
		out = append(out, sid)
	}
	return out
}

// quiescentSet is the ordered set of VPNs whose SSP cache entry is quiescent
// (tlbRef == 0 && coreRef == 0) — the eviction candidates of §4.1.2. It is a
// bitmap over VPN with one summary level (summary bit w set iff leaf word w
// is non-zero), so add, remove and min are O(1): min scans the summary, one
// word per 4096 heap pages, then takes find-first-set twice. Both levels grow
// to the highest VPN ever added.
type quiescentSet struct {
	leaf []uint64
	sum  []uint64
}

func (q *quiescentSet) add(vpn int) {
	w := vpn >> 6
	if w >= len(q.leaf) {
		q.leaf = append(q.leaf, make([]uint64, w+1-len(q.leaf))...)
		q.sum = append(q.sum, make([]uint64, w>>6+1-len(q.sum))...)
	}
	q.leaf[w] |= 1 << uint(vpn&63)
	q.sum[w>>6] |= 1 << uint(w&63)
}

func (q *quiescentSet) remove(vpn int) {
	w := vpn >> 6
	if w >= len(q.leaf) {
		return
	}
	q.leaf[w] &^= 1 << uint(vpn&63)
	if q.leaf[w] == 0 {
		q.sum[w>>6] &^= 1 << uint(w&63)
	}
}

func (q *quiescentSet) has(vpn int) bool {
	w := vpn >> 6
	return w < len(q.leaf) && q.leaf[w]&(1<<uint(vpn&63)) != 0
}

// min returns the lowest member, or -1 when the set is empty.
func (q *quiescentSet) min() int {
	for i, sw := range q.sum {
		if sw != 0 {
			w := i<<6 + bits.TrailingZeros64(sw)
			return w<<6 + bits.TrailingZeros64(q.leaf[w])
		}
	}
	return -1
}

func (q *quiescentSet) count() int {
	n := 0
	for _, w := range q.leaf {
		n += bits.OnesCount64(w)
	}
	return n
}

func (q *quiescentSet) reset() {
	clear(q.leaf)
	clear(q.sum)
}

// refTaken and refDropped keep the quiescent index equal to the set of
// entries with no reference. Every tlbRef/coreRef change calls one of them
// right after the change: counts are never negative, so the entry left the
// set iff the sum is now 1 and entered it iff the sum is now 0.
func (s *SSP) refTaken(meta *pageMeta) {
	if meta.tlbRef+meta.coreRef == 1 {
		s.setQuiescent(meta.vpn, false)
	}
}

func (s *SSP) refDropped(meta *pageMeta) {
	if meta.tlbRef+meta.coreRef == 0 {
		s.setQuiescent(meta.vpn, true)
	}
}

func (s *SSP) setQuiescent(vpn int, on bool) {
	if on {
		s.quiescent.add(vpn)
	} else {
		s.quiescent.remove(vpn)
	}
}

// lowestQuiescent returns the lowest quiescent VPN, -1 when every entry is
// referenced.
func (s *SSP) lowestQuiescent() int {
	return s.quiescent.min()
}

// allocSlot returns a free slot. When the transient cache is full it evicts
// the quiescent entry with the lowest VPN (§4.1.2: "already consolidated ...
// and not referenced by any TLB"; the lowest-first choice is this model's, it
// makes the victim a function of simulated state), consolidating it first if
// it still has committed lines on its shadow frame. The victim comes from the
// quiescent index in O(1); releaseEntry re-checks its reference counts.
func (s *SSP) allocSlot(at engine.Cycles) int {
	if sid, ok := s.takeFreeSlot(); ok {
		return sid
	}
	victim := s.lowestQuiescent()
	if victim < 0 {
		panic("core: SSP cache exhausted with every entry referenced; raise Config.Entries")
	}
	meta := s.lookupMeta(victim)
	if meta.committed != 0 {
		s.consolidate(meta, engine.MaxCycles(at, s.now))
	}
	s.releaseEntry(meta, engine.MaxCycles(at, s.now))
	sid, _ := s.takeFreeSlot()
	return sid
}

// releaseEntry removes a consolidated, unreferenced entry from the
// transient cache, journaling the slot release so recovery never
// resurrects a stale association.
func (s *SSP) releaseEntry(meta *pageMeta, at engine.Cycles) {
	if meta.committed != 0 || meta.tlbRef != 0 || meta.coreRef != 0 {
		panic("core: releasing a live SSP entry")
	}
	sid := meta.slot
	st := slotState{vpn: -1, ppn1: meta.ppn1, ver: s.allocVer()}
	si := s.shardOfSlot(sid)
	tid := s.allocTID()
	s.appendSlotRecord(si, -1, tid, recRelease, sid, st, at)
	// Publishing before the record is durable is safe here (unlike the
	// commit path): a release's NVRAM side effects precede its record, so a
	// checkpoint persisting this state early is equivalent to the record
	// having applied.
	s.slotShadow[sid] = st
	// The slot's next tenant inherits a barrier at the release record, so
	// its first commit flushes this shard before its data flushes.
	s.slotBarrier[sid] = journalRef{shard: si, mark: s.journals[si].MarkHere()}
	s.maybeCheckpointShard(si, at)
	s.slotOwner[sid] = nil
	s.deleteMeta(meta.vpn)
	s.freeSlots = append(s.freeSlots, sid)
}

// onTLBEvict is the extended-TLB eviction hook: it drops the page's TLB
// reference count and triggers eager consolidation when the page becomes
// inactive (§3.4) — deferred to the epoch batch in parallel mode, like
// every parallel-mode consolidation.
func (s *SSP) onTLBEvict(vpn tlbsim.VPN) {
	meta := s.lookupMeta(int(vpn))
	if meta == nil {
		panic("core: TLB evicted a page without an SSP entry")
	}
	meta.tlbRef--
	if meta.tlbRef < 0 {
		panic("core: negative TLB refcount")
	}
	s.refDropped(meta)
	s.maybeConsolidate(meta, s.now)
}
