// Package core implements Shadow Sub-Paging (SSP), the paper's primary
// contribution: failure-atomic durable transactions on NVRAM through
// cache-line-level remapping between each virtual page and two physical
// frames, with lightweight metadata journaling (§3.3), page consolidation
// (§3.4), background checkpointing (§4.1.2) and crash recovery (§4.4).
//
// The package realises the architecture of Figure 3 on the simulated
// hardware of internal/{memsim,cachesim,tlbsim}: the extended TLB caches
// per-page metadata, the memory controller owns the SSP cache (a transient
// DRAM/L3-resident part and a persistent NVRAM slot array), and all
// per-line state lives in three 64-bit bitmaps per active page — current,
// updated and committed.
package core

import (
	"encoding/binary"
	"fmt"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/vm"
	"repro/internal/wal"
)

// invalidU32 marks unused slot fields (free slots, absent frames).
const invalidU32 = ^uint32(0)

// Config tunes the SSP mechanism; see DefaultConfig for the paper's values.
type Config struct {
	// Entries is the transient SSP cache capacity. §4.1.2 sizes it as
	// N·T+O (cores × TLB entries + overprovisioning); §5.1 reserves about
	// 1K entries. It must not exceed the persistent slot count of
	// vm.LayoutConfig.SSPSlots.
	Entries int
	// ResidentEntries of the SSP cache are modelled as resident in the L3
	// slice (§4.2); accesses to them cost CacheHitLat, others CacheMissLat.
	ResidentEntries int
	// CacheHitLat is the SSP-cache access latency when resident (the L3
	// latency, 27 cycles); Figure 9 sweeps this.
	CacheHitLat engine.Cycles
	// CacheMissLat is charged when the entry is not L3-resident (DRAM).
	CacheMissLat engine.Cycles
	// WSBEntries is the per-core write-set buffer capacity in pages
	// (§4.2); overflowing transactions divert to the software fall-back.
	WSBEntries int
	// FlipCycles is charged on a flip-current-bit broadcast (§4.1.1); the
	// message piggybacks on the coherence network, so it is small.
	FlipCycles engine.Cycles
	// JournalHighWater is the journal fill fraction that triggers a
	// checkpoint.
	JournalHighWater float64
	// SubPageLines is the persistence granularity in cache lines (1 = the
	// paper's default 64 B; 4 models the 256 B Optane granularity of
	// §4.3). Updated/current/committed bits are maintained per sub-page.
	SubPageLines int
	// LazyConsolidation defers consolidation of inactive pages until the
	// SSP cache needs their slot (the paper's flagged future work, §3.4:
	// "These inactive pages could be consolidated eagerly ... or lazily
	// (e.g. when the demands on the memory resources are high)"). A page
	// touched again before its slot is reclaimed skips consolidation
	// entirely.
	LazyConsolidation bool
	// FlipViaShootdown replaces the flip-current-bit coherence broadcast
	// with a TLB-shootdown-style synchronisation (§4.3's simpler-hardware
	// alternative): every first write to a line in a transaction pays
	// ShootdownCycles instead of FlipCycles.
	FlipViaShootdown bool
	// ShootdownCycles is the cost of one TLB shootdown (OS trap + IPIs).
	ShootdownCycles engine.Cycles
	// DurabilityEpoch, when positive, enables the relaxed-durability commit
	// mode (CommitRelaxed): a relaxed commit is acknowledged as soon as its
	// journal batch is buffered, and each journal shard hardens its open
	// epoch — data fences, a seal record and one ring flush — when the
	// epoch's age reaches this many cycles (or earlier: at Sync, Drain, any
	// synchronous flush of the shard, or a checkpoint). Zero (the paper's
	// synchronous model, bit-for-bit) by default. See journal.go's epoch
	// engine and recover.go's epoch-cut replay.
	DurabilityEpoch engine.Cycles
}

// DefaultConfig returns the paper's SSP parameters.
func DefaultConfig() Config {
	return Config{
		Entries:          1024,
		ResidentEntries:  1024,
		CacheHitLat:      27,
		CacheMissLat:     185,
		WSBEntries:       64,
		FlipCycles:       5,
		JournalHighWater: 0.75,
		SubPageLines:     1,
		ShootdownCycles:  4000, // trap + IPI round trip, per [1,48]
	}
}

// pageMeta is one transient SSP cache entry (Figure 3): the volatile view
// of a page that is being actively updated. vpn and slot are immutable
// after construction.
type pageMeta struct {
	vpn  int
	slot int // persistent slot index (SID)

	ppn0 memsim.PAddr // original physical page
	ppn1 memsim.PAddr // shadow physical page (the slot's spare)

	committed uint64 // durable-consistent location of each line (0=P0 1=P1)
	current   uint64 // most-recent location of each line
	tlbRef    int    // TLBs caching this page's translation
	coreRef   int    // cores with the page in an open write set

	// barrier marks the journal shard and position that must be durable
	// before this page's shadow frame may host durably-flushed speculative
	// data: the page's last lazily-journaled consolidation/release records
	// (see consolidate.go). Commits check it before their data flushes.
	barrier journalRef

	// flushDone is the latest completion cycle of the issued-but-unfenced
	// data flushes relaxed commits left against this page (flushData);
	// zero unless a relaxed commit ran. A synchronous commit fence takes
	// the max over its write-set pages; the value is monotone, so a commit
	// can only over-wait (never under-wait) on another core's flushes.
	flushDone engine.Cycles

	// lastUpdate names the journal position of this page's most recent
	// update/prepare record. Maintained only in relaxed-durability mode
	// (Config.DurabilityEpoch > 0): a record about to carry this page's
	// cumulative committed bitmap into a DIFFERENT shard must harden this
	// position first (barrierFlush's epoch leg, consolidate's guard), or a
	// crash could seal the cumulative state while dropping the open epoch
	// that produced it — reviving the earlier transaction on this page only
	// and tearing it across its other pages. Records bound for the same
	// shard need no barrier: ring order seals them together or drops them
	// together.
	lastUpdate journalRef
}

// journalRef names a durable position in one journal shard.
type journalRef struct {
	shard int
	mark  wal.Mark
}

// lineAddr returns the physical line address of line idx on the side
// selected by bit (0 → P0, 1 → P1).
func (m *pageMeta) lineAddr(idx int, bit uint64) memsim.PAddr {
	base := m.ppn0
	if bit != 0 {
		base = m.ppn1
	}
	return base + memsim.PAddr(idx*memsim.LineBytes)
}

// slotState mirrors one persistent SSP slot: what the NVRAM slot array
// would contain after applying every journaled update.
//
// ver is the slot's update version: a globally monotonic sequence number
// assigned at every snapshot of the slot (commit, consolidation,
// release). With a single journal it is redundant —
// stream order is update order — but with sharded journals a slot's records
// spread across streams that checkpoint independently, so recovery orders a
// record against the checkpointed slot array by comparing versions: a
// record applies only if it is newer than the state already in the slot.
type slotState struct {
	vpn       int // -1 when free
	ppn0      memsim.PAddr
	ppn1      memsim.PAddr // the slot's spare frame; owned forever (§4.1.2)
	committed uint64
	ver       uint32
}

// Slot array entry layout (one 64-byte line per slot):
//
//	+0  u32 vpn (invalidU32 = free)
//	+4  u32 ppn0 frame index (invalidU32 = none)
//	+8  u32 ppn1 frame index (the spare; always valid)
//	+12 u32 update version (checkpointed slotState.ver)
//	+16 u64 committed bitmap
//
// Only a checkpoint writes a line. A line never written reads as all zeros,
// which no encoded slot is (a free slot's vpn is invalidU32, a used slot's
// two frames differ), and means the formatted state: slot sid free, holding
// spare frame sid, version 0 (slots.go).
const slotBytes = memsim.LineBytes

// slotCodec holds the byte offsets of a slotState's fields in one of its
// two encodings: the slot line (slotLine) and a journal record's payload
// after its u32 slot id (journalPayload). The version is encoded only where
// the buffer reaches past its offset: always in a slot line, in a record
// only with sharded journals.
type slotCodec struct{ vpn, p0, p1, ver, committed int }

var (
	slotLine       = slotCodec{vpn: 0, p0: 4, p1: 8, ver: 12, committed: 16}
	journalPayload = slotCodec{vpn: 4, p0: 8, p1: 12, committed: 16, ver: 24}
)

// put encodes st into p.
func (c *slotCodec) put(p []byte, st slotState, l *vm.Layout) {
	vpn, p0 := invalidU32, invalidU32
	if st.vpn >= 0 {
		vpn, p0 = uint32(st.vpn), uint32(l.FrameIndex(st.ppn0))
	}
	binary.LittleEndian.PutUint32(p[c.vpn:], vpn)
	binary.LittleEndian.PutUint32(p[c.p0:], p0)
	binary.LittleEndian.PutUint32(p[c.p1:], uint32(l.FrameIndex(st.ppn1)))
	binary.LittleEndian.PutUint64(p[c.committed:], st.committed)
	if c.ver < len(p) {
		binary.LittleEndian.PutUint32(p[c.ver:], st.ver)
	}
}

// get decodes slot sid's state from p. A state naming a vpn outside the
// heap or a frame outside the pool — a corrupt image — is an error.
func (c *slotCodec) get(sid int, p []byte, l *vm.Layout) (slotState, error) {
	vpn := binary.LittleEndian.Uint32(p[c.vpn:])
	p0 := binary.LittleEndian.Uint32(p[c.p0:])
	p1 := binary.LittleEndian.Uint32(p[c.p1:])
	used := vpn != invalidU32
	switch {
	case used && int(vpn) >= l.Cfg.MaxHeapPages:
		return slotState{}, fmt.Errorf("core: slot %d names vpn %d of %d", sid, vpn, l.Cfg.MaxHeapPages)
	case used && int(p0) >= l.Frames:
		return slotState{}, fmt.Errorf("core: slot %d names frame index %d of %d", sid, p0, l.Frames)
	case int(p1) >= l.Frames:
		return slotState{}, fmt.Errorf("core: slot %d names frame index %d of %d", sid, p1, l.Frames)
	}
	st := slotState{vpn: -1, ppn1: l.FrameAddr(int(p1))}
	if c.ver < len(p) {
		st.ver = binary.LittleEndian.Uint32(p[c.ver:])
	}
	if used {
		st.vpn = int(vpn)
		st.ppn0 = l.FrameAddr(int(p0))
		st.committed = binary.LittleEndian.Uint64(p[c.committed:])
	}
	return st, nil
}

// Journal record kinds (§3.3 / §4.1.2). Update records commit in batches:
// a transaction appends recUpdate records for all but its last page and
// seals the batch with recUpdateEnd (update + end marker in one record, so
// single-page transactions cost exactly one record). Consolidate and
// release records are single-record atomic operations applied
// unconditionally. Kind 2, a standalone seal no writer appended, is
// retired: recovery refuses it as an unknown kind.
//
// Cross-shard (global) transactions use the two-phase pair: recPrepare
// records carry a global transaction's slot updates into every participant
// shard (same payload as recUpdate), and one recGlobalEnd record in the
// coordinator shard — the shard that owns the transaction's TID — seals the
// whole distributed batch. Recovery applies a TID's prepare records from
// every shard iff its coordinator end record is durable, so a crash before
// the end rolls back every participant and a crash after it redoes them.
//
// Relaxed durability adds recEpochSeal: a zero-payload marker appended
// immediately before every explicit ring flush when Config.DurabilityEpoch
// > 0 (flushShard). Seals make epoch boundaries the only replay cut points:
// recovery keeps each shard's records only up to its last durable seal, so
// bytes an un-hardened epoch happened to drain line-by-line are treated as
// absent (recover.go).
const (
	recUpdate      = 1
	recConsolidate = 3
	recRelease     = 4
	recUpdateEnd   = 5
	recPrepare     = 6
	recGlobalEnd   = 7
	recEpochSeal   = 8
)

// journal record payload: u32 sid, u32 vpn, u32 ppn0Idx, u32 ppn1Idx,
// u64 committed — 24 bytes ("128 bits of metadata for each modified page",
// §3.3, plus the slot's frame fields needed for recovery). With sharded journals (JournalShards > 1) the payload additionally
// carries the u32 slot update version that orders a record against
// independently checkpointed shards; the single-journal paper model keeps
// the 24-byte record — one stream's order is the update order, so the
// version is redundant there and would only inflate the Figure 6/7 write
// traffic.
const (
	journalPayloadBytes    = 24
	journalPayloadVerBytes = 28
)

// putJournalPayload encodes slot sid's state st into p (at least
// journalPayloadVerBytes long), with the version when withVer; it returns
// the encoded prefix of p.
func putJournalPayload(p []byte, sid int, st slotState, l *vm.Layout, withVer bool) []byte {
	p = p[:journalPayloadBytes]
	if withVer {
		p = p[:journalPayloadVerBytes]
	}
	binary.LittleEndian.PutUint32(p, uint32(sid))
	journalPayload.put(p, st, l)
	return p
}

// globalEndPayload encodes a global-end record's payload into buf: the u32
// participant-shard bitmask. The mask is diagnostic (recovery keys on the TID
// alone); it keeps torn coordinator records detectable by length as well as
// checksum: Recover rejects a global-end payload of any length but
// globalEndPayloadBytes.
func globalEndPayload(buf *[globalEndPayloadBytes]byte, mask uint32) []byte {
	binary.LittleEndian.PutUint32(buf[:], mask)
	return buf[:]
}

const globalEndPayloadBytes = 4

// lruSet models which SSP cache entries currently sit in the L3-resident
// slice: a bounded recency set over slot IDs, held as an intrusive doubly
// linked list indexed by slot id — head is the most recently touched slot,
// tail the least, so a touch (hit or miss, with or without an eviction) is
// O(1). The node array grows to the highest slot id ever touched; slots are
// handed out from 0 upward, so a machine pays for the slots it used.
//
// Invariants (checked by check): the list holds exactly the n slots whose in
// bit is set, each once; n ≤ cap; head.prev and tail.next are lruNil.
type lruSet struct {
	cap        int
	n          int
	head, tail int32
	nodes      []lruNode
}

type lruNode struct {
	prev, next int32
	in         bool
}

const lruNil = int32(-1)

// newLRUSet returns an empty set. A capacity below one still keeps the slot
// touched last (the set evicts before it inserts, never after).
func newLRUSet(capacity int) *lruSet {
	if capacity < 1 {
		capacity = 1
	}
	return &lruSet{cap: capacity, head: lruNil, tail: lruNil}
}

// Touch records an access and reports whether it hit the resident set. A miss
// on a full set evicts the least recently touched slot.
func (l *lruSet) Touch(sid int) bool {
	if sid >= len(l.nodes) {
		l.nodes = append(l.nodes, make([]lruNode, sid+1-len(l.nodes))...)
	}
	id := int32(sid)
	hit := l.nodes[sid].in
	switch {
	case hit && l.head == id:
		return true
	case hit:
		l.unlink(id)
	default:
		if l.n >= l.cap {
			old := l.tail
			l.unlink(old)
			l.nodes[old].in = false
			l.n--
		}
		l.nodes[sid].in = true
		l.n++
	}
	nd := &l.nodes[sid]
	nd.prev, nd.next = lruNil, l.head
	if l.head != lruNil {
		l.nodes[l.head].prev = id
	} else {
		l.tail = id
	}
	l.head = id
	return hit
}

// unlink takes a member out of the list, leaving its in bit alone.
func (l *lruSet) unlink(id int32) {
	nd := l.nodes[id]
	if nd.prev != lruNil {
		l.nodes[nd.prev].next = nd.next
	} else {
		l.head = nd.next
	}
	if nd.next != lruNil {
		l.nodes[nd.next].prev = nd.prev
	} else {
		l.tail = nd.prev
	}
}

// has reports whether sid is resident, without touching it.
func (l *lruSet) has(sid int) bool { return sid < len(l.nodes) && l.nodes[sid].in }

// Reset clears the set (power loss).
func (l *lruSet) Reset() {
	clear(l.nodes)
	l.n, l.head, l.tail = 0, lruNil, lruNil
}

// check walks the list against the invariants above and describes the first
// violation, or returns "".
func (l *lruSet) check() string {
	if l.n > l.cap {
		return fmt.Sprintf("residency list holds %d slots, capacity %d", l.n, l.cap)
	}
	walked, prev := 0, lruNil
	for id := l.head; id != lruNil; prev, id = id, l.nodes[id].next {
		// A slot listed twice closes a cycle, which the bound catches.
		if walked++; walked > l.n || !l.nodes[id].in || l.nodes[id].prev != prev {
			return fmt.Sprintf("residency list: slot %d (in=%v prev=%d) is stop %d of %d, reached from %d",
				id, l.nodes[id].in, l.nodes[id].prev, walked, l.n, prev)
		}
	}
	if prev != l.tail || walked != l.n {
		return fmt.Sprintf("residency list walk ended at %d after %d slots; tail %d, n %d", prev, walked, l.tail, l.n)
	}
	in := 0
	for i := range l.nodes {
		if l.nodes[i].in {
			in++
		}
	}
	if in != l.n {
		return fmt.Sprintf("residency list: %d in bits set for %d list members", in, l.n)
	}
	return ""
}
