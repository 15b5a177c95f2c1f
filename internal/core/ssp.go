package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/tlbsim"
	"repro/internal/txn"
	"repro/internal/vm"
	"repro/internal/wal"
)

// This file holds the SSP type itself: configuration wiring, the
// transient-cache entry table, and address translation. The
// rest of the mechanism is split by concern — the transaction pipeline in
// commit.go (with the cross-shard two-phase protocol in global.go), journal
// shard append/checkpoint logic in journal.go, slot allocation and eviction
// in slots.go, page consolidation in consolidate.go, the software fall-back
// path in fallback.go, and crash recovery in recover.go.

// metaTable is the transient SSP cache's entry table, indexed by VPN (heap
// VPNs are dense from zero). The directory has one slot per metaChunkPages
// consecutive heap pages and is sized once from the layout; a chunk is
// allocated when the first entry is stored into it, so a lookup is two
// loads.
type metaTable struct {
	dir []*metaChunk
	n   int // entries present
}

const (
	metaChunkBits  = 6
	metaChunkPages = 1 << metaChunkBits
)

type metaChunk [metaChunkPages]*pageMeta

// SSP is the Shadow Sub-Paging backend; it implements txn.Backend.
//
// SSP takes no host lock: serial execution and Machine.Run's window
// scheduler run one core at a time (see txn.Backend). Inside Run, parallel
// mode batches commit-time page consolidation (see consolidate.go); that is
// simulated behaviour, not synchronisation. The metadata journal is sharded,
// so commits on different shards never serialise on one journal bank in
// simulated time. TIDs come from one counter and a commit appends before
// any other core runs, so each stream sees increasing TIDs; a per-slot
// update version orders the slot's records across shards for recovery.
// doc.go records the lock order a concurrent implementation of this
// protocol would need.
type SSP struct {
	env *txn.Env
	cfg Config

	journals []*wal.Stream // metadata journal shards (len ≥ 1)
	resident *lruSet

	// nextTID allocates journal and fall-back transaction IDs; nextVer
	// allocates slot update versions, so per-slot versions are
	// snapshot-ordered (see slotState.ver).
	nextTID uint32
	nextVer uint32

	entries   metaTable    // by vpn; the transient SSP cache
	quiescent quiescentSet // vpns of unreferenced entries (slots.go)

	// The slot tables reach the highest slot handed out; every slot past
	// them is formatted (slots.go). freeSlots is the stack of free slots
	// below len(slotShadow), the next one handed out on top.
	slotShadow  []slotState  // journal-consistent view of the slot array
	slotOwner   []*pageMeta  // owning cache entry per slot (nil = unowned)
	slotBarrier []journalRef // pending release-record barrier per slot
	freeSlots   []int

	// slotDecodes and journalDecodes count the slot lines and journal
	// record payloads recovery has decoded (tests).
	slotDecodes, journalDecodes int

	dirtySlots []map[int]struct{} // per journal shard: slots needing a checkpoint write

	// epochs holds each journal shard's open relaxed-durability epoch
	// (Config.DurabilityEpoch > 0; zero-valued and untouched otherwise) —
	// see the epoch engine in journal.go.
	epochs []shardEpoch

	// pendingGlobalSlots tracks, per coordinator shard, the slots of global
	// transactions whose end record lives in that shard's ring while their
	// prepare records sit in OTHER shards' rings. A coordinator checkpoint
	// must persist these slots to the slot array before truncating the end
	// records away, or a crash would find orphaned prepares and roll back a
	// committed transaction (see checkpointShard).
	pendingGlobalSlots []map[int]struct{}

	// Per-core transaction state. globalTxn marks sections opened with
	// BeginGlobal, whose commit may spread prepare records over multiple
	// journal shards (see global.go).
	inTxn     []bool
	globalTxn []bool
	ws        []writeSet  // write-set buffers
	pubs      [][]slotPub // per-core commit publication buffers (appendBatch, globalCommit)
	global    []globalScratch
	ckptSids  []int // checkpointShard's sorted slot ids, reused across checkpoints

	// Software fall-back path (§3.5).
	fallback []bool
	fbTID    []uint32
	fbLogs   []*wal.Stream
	fbOld    []map[memsim.PAddr][memsim.LineBytes]byte
	fbPages  []map[int]struct{}

	// now tracks the latest time observed by any operation, so background
	// work triggered from timeless callbacks (TLB evictions) has a clock.
	now engine.Cycles

	// Parallel-mode state: parallel is set for every Machine.Run, flipped
	// only while the machine is quiescent. consolQ accumulates pages whose
	// consolidation was deferred; epochOps counts commits since the last
	// batch drain.
	parallel bool
	consolQ  []int
	epochOps int
}

var _ txn.Backend = (*SSP)(nil)

// NewSSP builds the SSP backend over env. When fresh is true the persistent
// slot array is formatted: every slot is assigned its spare frame up front
// (§4.1.2 "Free Space Management"), the frames reserved in one step and no
// slot line written (slots.go). Otherwise the caller runs Recover to parse
// the existing image.
func NewSSP(env *txn.Env, cfg Config, fresh bool) *SSP {
	if cfg.Entries <= 0 {
		cfg = DefaultConfig()
	}
	if cfg.Entries > env.Layout.Cfg.SSPSlots {
		panic(fmt.Sprintf("core: Entries %d exceeds persistent slots %d", cfg.Entries, env.Layout.Cfg.SSPSlots))
	}
	if cfg.SubPageLines <= 0 {
		cfg.SubPageLines = 1
	}
	if memsim.LinesPerPage%cfg.SubPageLines != 0 {
		panic("core: SubPageLines must divide 64")
	}
	s := &SSP{
		env:      env,
		cfg:      cfg,
		resident: newLRUSet(cfg.ResidentEntries),
	}
	for _, base := range env.Layout.JournalBase {
		s.journals = append(s.journals, wal.NewStream(env.Mem, base, env.Layout.Cfg.JournalBytes, stats.CatMetaJournal))
		s.dirtySlots = append(s.dirtySlots, make(map[int]struct{}))
		s.pendingGlobalSlots = append(s.pendingGlobalSlots, make(map[int]struct{}))
	}
	s.epochs = make([]shardEpoch, len(s.journals))
	if s.cfg.DurabilityEpoch < 0 {
		s.cfg.DurabilityEpoch = 0
	}
	s.entries.dir = make([]*metaChunk, (env.Layout.Cfg.MaxHeapPages+metaChunkPages-1)/metaChunkPages)
	cores := env.Cores()
	s.inTxn = make([]bool, cores)
	s.globalTxn = make([]bool, cores)
	s.ws = make([]writeSet, cores)
	s.pubs = make([][]slotPub, cores)
	s.global = make([]globalScratch, cores)
	s.fallback = make([]bool, cores)
	s.fbTID = make([]uint32, cores)
	s.fbOld = make([]map[memsim.PAddr][memsim.LineBytes]byte, cores)
	s.fbPages = make([]map[int]struct{}, cores)
	for c := 0; c < cores; c++ {
		s.fbOld[c] = make(map[memsim.PAddr][memsim.LineBytes]byte)
		s.fbPages[c] = make(map[int]struct{})
		s.fbLogs = append(s.fbLogs, wal.NewStream(env.Mem, env.Layout.LogBase[c], env.Layout.Cfg.LogBytes, stats.CatUndoLog))
		env.TLBs[c].OnEvict = s.onTLBEvict
	}
	if fresh {
		env.Frames.ReserveRange(0, cfg.Entries)
	}
	return s
}

// SetParallel switches parallel mode, which Machine.Run turns on before the
// core goroutines start and off after they join; both calls happen with no
// simulated work in flight. While it is on, commit-time page consolidation
// is batched into epochs instead of running inline (see consolidate.go);
// crash consistency and the aggregate counter totals are unchanged. Turning
// it off drains any consolidation work the last epoch left queued.
func (s *SSP) SetParallel(on bool) {
	if s.parallel && !on {
		s.drainConsolQueue(s.now)
	}
	s.parallel = on
}

// ---------------------------------------------------------------------------
// Write-set buffers.

// writeSet is one core's write-set buffer (§4.2): the pages its open
// transaction wrote, in vpn order, each with the bitmap of sub-page units it
// updated. It holds at most Config.WSBEntries pages, so lookups search a
// short sorted slice; reset keeps the capacity, so a warm buffer allocates
// nothing.
type writeSet struct {
	vpns []int
	bits []uint64
}

// find returns vpn's position, or the position it would be inserted at, and
// whether it is present.
func (w *writeSet) find(vpn int) (int, bool) { return slices.BinarySearch(w.vpns, vpn) }

// bitmap returns vpn's updated-unit bitmap, 0 when vpn is not in the set.
func (w *writeSet) bitmap(vpn int) uint64 {
	if i, ok := w.find(vpn); ok {
		return w.bits[i]
	}
	return 0
}

// insert adds vpn with bitmap bm at position i, as returned by find.
func (w *writeSet) insert(i, vpn int, bm uint64) {
	w.vpns = slices.Insert(w.vpns, i, vpn)
	w.bits = slices.Insert(w.bits, i, bm)
}

func (w *writeSet) reset() {
	w.vpns, w.bits = w.vpns[:0], w.bits[:0]
}

// ---------------------------------------------------------------------------
// Transient-cache entry table access.

// lookupMeta returns vpn's transient cache entry, or nil: two loads. A vpn
// outside the layout's heap has no entry.
func (s *SSP) lookupMeta(vpn int) *pageMeta {
	ci := vpn >> metaChunkBits
	if uint(ci) >= uint(len(s.entries.dir)) {
		return nil
	}
	c := s.entries.dir[ci]
	if c == nil {
		return nil
	}
	return c[vpn&(metaChunkPages-1)]
}

// storeMeta inserts a new, unreferenced entry and lists it as quiescent.
func (s *SSP) storeMeta(meta *pageMeta) {
	d := &s.entries.dir[meta.vpn>>metaChunkBits]
	if *d == nil {
		*d = new(metaChunk)
	}
	(*d)[meta.vpn&(metaChunkPages-1)] = meta
	s.entries.n++
	s.setQuiescent(meta.vpn, true)
}

// deleteMeta removes an entry from the table and from the quiescent index.
func (s *SSP) deleteMeta(vpn int) {
	s.entries.dir[vpn>>metaChunkBits][vpn&(metaChunkPages-1)] = nil
	s.entries.n--
	s.setQuiescent(vpn, false)
}

// forEachMeta visits every entry in VPN order. It walks the whole
// directory: forensics and tests only.
func (s *SSP) forEachMeta(fn func(vpn int, meta *pageMeta)) {
	for ci, c := range s.entries.dir {
		if c == nil {
			continue
		}
		for i, meta := range c {
			if meta != nil {
				fn(ci<<metaChunkBits+i, meta)
			}
		}
	}
}

// metaOf is lookupMeta for tests and forensics.
func (s *SSP) metaOf(vpn int) *pageMeta { return s.lookupMeta(vpn) }

// entryCount returns the transient cache population.
func (s *SSP) entryCount() int { return s.entries.n }

// resetEntries empties the transient cache and its quiescent index (crash,
// recovery). Chunks are cleared in place, so the rebuild that follows a
// recovery allocates none. Quiescent-only.
func (s *SSP) resetEntries() {
	for _, c := range s.entries.dir {
		if c != nil {
			*c = metaChunk{}
		}
	}
	s.entries.n = 0
	s.quiescent.reset()
}

// ---------------------------------------------------------------------------

// Name implements txn.Backend.
func (s *SSP) Name() string { return "SSP" }

// unitOf maps a line index to its sub-page unit (bit index).
func (s *SSP) unitOf(lineIdx int) int { return lineIdx / s.cfg.SubPageLines }

// unitLines iterates the line indices of unit u.
func (s *SSP) unitLines(u int) (int, int) {
	return u * s.cfg.SubPageLines, (u + 1) * s.cfg.SubPageLines
}

// clock raises now to at.
func (s *SSP) clock(at engine.Cycles) {
	if at > s.now {
		s.now = at
	}
}

// translate resolves va's page metadata through core's TLB, charging the
// page walk and the SSP-cache metadata fetch on a miss (§4.1.1). The TLB
// reference count guarantees the returned entry stays in the transient
// cache while the page is TLB-resident.
func (s *SSP) translate(core int, va uint64, at engine.Cycles) (*pageMeta, engine.Cycles) {
	vpn := vm.VPNOf(va)
	if _, level, hit := s.env.TLBs[core].Lookup(tlbsim.VPN(vpn)); hit {
		meta := s.lookupMeta(vpn)
		if meta == nil {
			panic("core: TLB-resident page without SSP cache entry")
		}
		if level == 2 {
			// The SSP-extended fields live in the L1 DTLB entries
			// (§4.1.1); promoting from the STLB refetches the metadata
			// from the SSP cache — this is the access Figure 9 sweeps.
			s.env.StatsFor(core).SSPCacheHits++
			at += s.env.STLBCycles + s.accessLat(meta.slot)
		}
		return meta, at
	}
	ppn, t, ok := s.env.PT.Walk(vpn, at)
	if !ok {
		panic("core: access to unmapped persistent page")
	}
	meta, t := s.fetchMeta(vpn, ppn, t)
	s.env.TLBs[core].Insert(tlbsim.VPN(vpn), ppn)
	meta.tlbRef++
	s.refTaken(meta)
	return meta, t
}

// fetchMeta returns the SSP cache entry for vpn, creating one (allocating a
// slot) on a miss, and charges the SSP-cache access latency according to
// the L3-residency model (§4.2, Figure 9).
func (s *SSP) fetchMeta(vpn int, ppn memsim.PAddr, at engine.Cycles) (*pageMeta, engine.Cycles) {
	if meta := s.lookupMeta(vpn); meta != nil {
		s.env.Stats.SSPCacheHits++
		t := at + s.accessLat(meta.slot)
		return meta, t
	}
	s.env.Stats.SSPCacheMisses++
	sid := s.allocSlot(at)
	meta := &pageMeta{
		vpn:     vpn,
		slot:    sid,
		ppn0:    ppn,
		ppn1:    s.slotShadow[sid].ppn1,
		barrier: s.slotBarrier[sid],
	}
	s.slotOwner[sid] = meta
	s.storeMeta(meta)
	// The slot association becomes journal-visible only at the page's
	// first commit; until then the page's committed state is entirely in
	// its PTE frame, which needs no metadata.
	t := at + s.accessLat(sid)
	return meta, t
}

func (s *SSP) accessLat(sid int) engine.Cycles {
	if s.resident.Touch(sid) {
		return s.cfg.CacheHitLat
	}
	return s.cfg.CacheMissLat
}

// DebugCheckFrames verifies the frame-ownership invariant: every entry's
// ppn0 matches its PTE, and all entry frames plus free-slot spares are
// pairwise disjoint. It then checks the SSP cache's indices against a full
// scan of the entry table (checkIndices). Returns a description of the first
// violation, or "". Quiescent-machine helper (tests, post-run assertions).
func (s *SSP) DebugCheckFrames() string {
	owner := map[memsim.PAddr]string{}
	claim := func(pa memsim.PAddr, who string) string {
		if prev, dup := owner[pa]; dup {
			return fmt.Sprintf("frame %#x claimed by both %s and %s", pa, prev, who)
		}
		owner[pa] = who
		return ""
	}
	msg := ""
	s.forEachMeta(func(vpn int, meta *pageMeta) {
		if msg != "" {
			return
		}
		if pte, ok := s.env.PT.Lookup(vpn); !ok || pte != meta.ppn0 {
			msg = fmt.Sprintf("vpn %d: meta.ppn0 %#x != PTE %#x", vpn, meta.ppn0, pte)
			return
		}
		if m := claim(meta.ppn0, fmt.Sprintf("vpn%d.p0", vpn)); m != "" {
			msg = m
			return
		}
		if m := claim(meta.ppn1, fmt.Sprintf("vpn%d.p1", vpn)); m != "" {
			msg = m
		}
	})
	if msg != "" {
		return msg
	}
	for _, sid := range s.freeOrder() {
		if msg := claim(s.shadowOf(sid).ppn1, fmt.Sprintf("freeslot%d", sid)); msg != "" {
			return msg
		}
	}
	for _, e := range s.env.PT.Mapped() {
		if s.lookupMeta(e.VPN) != nil {
			continue
		}
		if msg := claim(e.Frame, fmt.Sprintf("pte%d", e.VPN)); msg != "" {
			return msg
		}
	}
	return s.checkIndices()
}

// DebugSlotDump describes the slot array as the machine holds it: every
// slot's journal-consistent state in slot order, the order the free slots
// will be handed out in, and the frames the allocator holds in use. Tests
// compare two recoveries with it. Quiescent-machine helper.
func (s *SSP) DebugSlotDump() string {
	var b strings.Builder
	for sid := 0; sid < s.cfg.Entries; sid++ {
		fmt.Fprintf(&b, "slot %d: %+v\n", sid, s.shadowOf(sid))
	}
	fmt.Fprintf(&b, "free order: %s\nframes in use: %s\n", runs(s.freeOrder()), runs(s.env.Frames.DebugUsed()))
	return b.String()
}

// runs formats ids with each run of consecutive ascending values as "a-b".
func runs(ids []int) string {
	var b strings.Builder
	for i := 0; i < len(ids); {
		j := i
		for j+1 < len(ids) && ids[j+1] == ids[j]+1 {
			j++
		}
		if j > i {
			fmt.Fprintf(&b, "%d-%d ", ids[i], ids[j])
		} else {
			fmt.Fprintf(&b, "%d ", ids[i])
		}
		i = j + 1
	}
	return b.String()
}

// checkIndices compares the structures the metadata path reads in O(1) with
// what a full scan of the entry table says: the quiescent index is exactly
// the set of entries with no TLB or core reference, the table's population
// counter matches its contents, and the residency list is well formed.
func (s *SSP) checkIndices() string {
	msg := ""
	entries, quiescent := 0, 0
	s.forEachMeta(func(vpn int, meta *pageMeta) {
		entries++
		q := meta.tlbRef == 0 && meta.coreRef == 0
		if q {
			quiescent++
		}
		if msg == "" && (meta.vpn != vpn || s.quiescent.has(vpn) != q) {
			msg = fmt.Sprintf("vpn %d: entry vpn %d tlbRef %d coreRef %d, quiescent index says %v",
				vpn, meta.vpn, meta.tlbRef, meta.coreRef, s.quiescent.has(vpn))
		}
	})
	if msg != "" {
		return msg
	}
	if n := s.quiescent.count(); n != quiescent {
		return fmt.Sprintf("quiescent index holds %d vpns, %d entries are quiescent", n, quiescent)
	}
	if entries != s.entryCount() {
		return fmt.Sprintf("entry table holds %d entries, entryCount() = %d", entries, s.entryCount())
	}
	return s.resident.check()
}
