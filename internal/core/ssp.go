package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/tlbsim"
	"repro/internal/txn"
	"repro/internal/vm"
	"repro/internal/wal"
)

// This file holds the SSP type itself: configuration wiring, the locking
// primitives, the transient-cache entry table, and address translation. The
// rest of the mechanism is split by concern — the transaction pipeline in
// commit.go (with the cross-shard two-phase protocol in global.go), journal
// shard append/checkpoint logic in journal.go, slot allocation and eviction
// in slots.go, page consolidation in consolidate.go, the software fall-back
// path in fallback.go, and crash recovery in recover.go.

// metaTable is the transient SSP cache's entry table, indexed by VPN (heap
// VPNs are dense from zero). The directory has one slot per metaChunkPages
// consecutive heap pages and is sized once from the layout; a chunk is
// allocated when the first entry is stored into it. Directory slots and
// entries are published atomically, so a lookup is two loads and takes no
// lock in any mode. Stores, deletes and reset happen only under structMu (or
// on a quiescent machine), so n needs no lock of its own.
type metaTable struct {
	dir []atomic.Pointer[metaChunk]
	n   int // entries present
}

const (
	metaChunkBits  = 8
	metaChunkPages = 1 << metaChunkBits
)

type metaChunk [metaChunkPages]atomic.Pointer[pageMeta]

// SSP is the Shadow Sub-Paging backend; it implements txn.Backend.
//
// Concurrency (machine parallel mode, see txn.ParallelAware): locking is
// engaged only while parallel mode is on — serial runs execute exactly the
// unlocked deterministic paths they always did. The lock order is
//
//	structMu → journalMu[i] → pageMeta.mu → quiescentMu/residentMu/consolMu
//	  → caches → page table → memory
//
// structMu protects everything "structural": entry-table mutation, the
// free-slot list, slot allocation/eviction, consolidation scheduling and
// checkpoint execution. The metadata journal is sharded: each shard's
// stream, dirty-slot set and high-water trigger are protected by that
// shard's journalMu, so commits on different shards never serialise on a
// journal lock (nor, with the shards in distinct NVRAM regions, on a
// journal bank in simulated time). A single-shard commit takes exactly one
// journalMu; a cross-shard (global) commit takes every participant shard's
// journalMu plus the coordinator's, always in ascending shard order, so two
// global commits — or a global and any set of local commits — can never
// deadlock. TID allocation is a plain atomic; a TID destined for a shard is
// drawn while holding that shard's lock (for a global commit: all involved
// shards' locks) so each stream still sees non-decreasing TIDs. Slot-shadow
// mutation is per-page: slotShadow[sid] is written under the owning
// pageMeta's mutex, with a per-slot update version (allocated under the
// same lock) ordering the slot's records across shards for recovery. Each
// pageMeta's mutex protects that page's bitmaps and reference counts, so
// stores to different pages proceed concurrently. Commit-time page
// consolidation, which would otherwise funnel every core through structMu
// at commit, is deferred to a batched epoch drain (see consolidate.go).
type SSP struct {
	env *txn.Env
	cfg Config

	journals []*wal.Stream // metadata journal shards (len ≥ 1)
	resident *lruSet

	// nextTID allocates journal and fall-back transaction IDs; nextVer
	// allocates slot update versions (bumped under the owning page's lock,
	// so per-slot versions are snapshot-ordered — see slotState.ver).
	nextTID atomic.Uint32
	nextVer atomic.Uint32

	entries     metaTable    // by vpn; the transient SSP cache
	quiescent   quiescentSet // vpns of unreferenced entries; quiescentMu (slots.go)
	slotShadow  []slotState  // journal-consistent view of the slot array
	slotOwner   []*pageMeta  // owning cache entry per slot (nil = unowned); structMu
	slotBarrier []journalRef // pending release-record barrier per slot; structMu
	freeSlots   []int

	dirtySlots []map[int]struct{} // per journal shard: slots needing a checkpoint write

	// epochs holds each journal shard's open relaxed-durability epoch
	// (Config.DurabilityEpoch > 0; zero-valued and untouched otherwise).
	// Guarded by the shard's journalMu, like the shard's stream — see the
	// epoch engine in journal.go. prepHolds counts, per shard, the relaxed
	// global transactions whose prepare records sit in that shard's ring
	// while their coordinator End is still in another shard's open epoch;
	// a held shard defers checkpoints (see relaxedGlobalCommit). Atomic
	// because the coordinator's harden releases holds on other shards while
	// holding only its own shard's lock.
	epochs    []shardEpoch
	prepHolds []atomic.Int32

	// pendingGlobalSlots tracks, per coordinator shard, the slots of global
	// transactions whose end record lives in that shard's ring while their
	// prepare records sit in OTHER shards' rings. A coordinator checkpoint
	// must persist these slots to the slot array before truncating the end
	// records away, or a crash would find orphaned prepares and roll back a
	// committed transaction (see checkpointShard). Mutated under the
	// coordinator shard's journalMu.
	pendingGlobalSlots []map[int]struct{}

	// Per-core transaction state. globalTxn marks sections opened with
	// BeginGlobal, whose commit may spread prepare records over multiple
	// journal shards (see global.go).
	inTxn     []bool
	globalTxn []bool
	wsb       []map[int]uint64 // write-set buffer: vpn -> updated bitmap

	// Software fall-back path (§3.5).
	fallback []bool
	fbTID    []uint32
	fbLogs   []*wal.Stream
	fbOld    []map[memsim.PAddr][memsim.LineBytes]byte
	fbPages  []map[int]struct{}

	// now tracks the latest time observed by any operation, so background
	// work triggered from timeless callbacks (TLB evictions) has a clock.
	// Maintained as an atomic max so parallel cores can publish times
	// without a lock.
	now atomic.Int64

	// Parallel-mode state. parallel is flipped only while the machine is
	// quiescent. consolQ accumulates pages whose consolidation was deferred;
	// epochOps counts commits since the last batch drain.
	parallel    bool
	structMu    sync.Mutex
	journalMu   []sync.Mutex // one per journal shard
	quiescentMu sync.Mutex
	residentMu  sync.Mutex
	consolMu    sync.Mutex
	consolQ     []int
	epochOps    int
}

var _ txn.Backend = (*SSP)(nil)
var _ txn.ParallelAware = (*SSP)(nil)
var _ txn.GlobalBackend = (*SSP)(nil)
var _ txn.RelaxedBackend = (*SSP)(nil)

// NewSSP builds the SSP backend over env. When fresh is true the persistent
// slot array is formatted (every slot assigned its spare frame up front,
// §4.1.2 "Free Space Management"); otherwise the caller runs Recover to
// parse the existing image.
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
	if cfg.EpochCommits <= 0 {
		cfg.EpochCommits = DefaultConfig().EpochCommits
	}
	s := &SSP{
		env:         env,
		cfg:         cfg,
		resident:    newLRUSet(cfg.ResidentEntries),
		slotShadow:  make([]slotState, cfg.Entries),
		slotOwner:   make([]*pageMeta, cfg.Entries),
		slotBarrier: make([]journalRef, cfg.Entries),
	}
	for _, base := range env.Layout.JournalBase {
		s.journals = append(s.journals, wal.NewStream(env.Mem, base, env.Layout.Cfg.JournalBytes, stats.CatMetaJournal))
		s.dirtySlots = append(s.dirtySlots, make(map[int]struct{}))
		s.pendingGlobalSlots = append(s.pendingGlobalSlots, make(map[int]struct{}))
	}
	s.journalMu = make([]sync.Mutex, len(s.journals))
	s.epochs = make([]shardEpoch, len(s.journals))
	s.prepHolds = make([]atomic.Int32, len(s.journals))
	if s.cfg.DurabilityEpoch < 0 {
		s.cfg.DurabilityEpoch = 0
	}
	s.entries.dir = make([]atomic.Pointer[metaChunk], (env.Layout.Cfg.MaxHeapPages+metaChunkPages-1)/metaChunkPages)
	cores := env.Cores()
	s.inTxn = make([]bool, cores)
	s.globalTxn = make([]bool, cores)
	s.wsb = make([]map[int]uint64, cores)
	s.fallback = make([]bool, cores)
	s.fbTID = make([]uint32, cores)
	s.fbOld = make([]map[memsim.PAddr][memsim.LineBytes]byte, cores)
	s.fbPages = make([]map[int]struct{}, cores)
	for c := 0; c < cores; c++ {
		s.wsb[c] = make(map[int]uint64)
		s.fbOld[c] = make(map[memsim.PAddr][memsim.LineBytes]byte)
		s.fbPages[c] = make(map[int]struct{})
		s.fbLogs = append(s.fbLogs, wal.NewStream(env.Mem, env.Layout.LogBase[c], env.Layout.Cfg.LogBytes, stats.CatUndoLog))
		core := c
		env.TLBs[c].OnEvict = func(vpn tlbsim.VPN) { s.onTLBEvict(core, int(vpn)) }
	}
	if fresh {
		s.format()
	}
	return s
}

// SetParallel implements txn.ParallelAware. Turning parallel mode off
// drains any consolidation work the last epoch left queued.
func (s *SSP) SetParallel(on bool) {
	if s.parallel && !on {
		s.drainConsolQueue(s.nowCycles())
	}
	s.parallel = on
}

// ---------------------------------------------------------------------------
// Lock helpers: no-ops in serial mode, so the deterministic single-goroutine
// paths are byte-for-byte the pre-concurrency ones.

func (s *SSP) lockStruct() {
	if s.parallel {
		s.structMu.Lock()
	}
}

func (s *SSP) unlockStruct() {
	if s.parallel {
		s.structMu.Unlock()
	}
}

func (s *SSP) lockMeta(m *pageMeta) {
	if s.parallel {
		m.mu.Lock()
	}
}

func (s *SSP) unlockMeta(m *pageMeta) {
	if s.parallel {
		m.mu.Unlock()
	}
}

func (s *SSP) lockShard(si int) {
	if s.parallel {
		s.journalMu[si].Lock()
	}
}

func (s *SSP) unlockShard(si int) {
	if s.parallel {
		s.journalMu[si].Unlock()
	}
}

// ---------------------------------------------------------------------------
// Transient-cache entry table access.

// lookupMeta returns vpn's transient cache entry, or nil: two atomic loads,
// no lock in any mode. A vpn outside the layout's heap has no entry.
func (s *SSP) lookupMeta(vpn int) *pageMeta {
	ci := vpn >> metaChunkBits
	if uint(ci) >= uint(len(s.entries.dir)) {
		return nil
	}
	c := s.entries.dir[ci].Load()
	if c == nil {
		return nil
	}
	return c[vpn&(metaChunkPages-1)].Load()
}

// storeMeta inserts a new, unreferenced entry and lists it as quiescent.
// Caller holds structMu in parallel mode.
func (s *SSP) storeMeta(meta *pageMeta) {
	d := &s.entries.dir[meta.vpn>>metaChunkBits]
	c := d.Load()
	if c == nil {
		c = new(metaChunk)
		d.Store(c)
	}
	c[meta.vpn&(metaChunkPages-1)].Store(meta)
	s.entries.n++
	s.setQuiescent(meta.vpn, true)
}

// deleteMeta removes an entry from the table and from the quiescent index.
// Caller holds structMu in parallel mode.
func (s *SSP) deleteMeta(vpn int) {
	s.entries.dir[vpn>>metaChunkBits].Load()[vpn&(metaChunkPages-1)].Store(nil)
	s.entries.n--
	s.setQuiescent(vpn, false)
}

// forEachMeta visits every entry in VPN order. Caller holds structMu in
// parallel mode. It walks the whole directory: forensics and tests only.
func (s *SSP) forEachMeta(fn func(vpn int, meta *pageMeta)) {
	for ci := range s.entries.dir {
		c := s.entries.dir[ci].Load()
		if c == nil {
			continue
		}
		for i := range c {
			if meta := c[i].Load(); meta != nil {
				fn(ci<<metaChunkBits+i, meta)
			}
		}
	}
}

// metaOf is lookupMeta for tests and forensics.
func (s *SSP) metaOf(vpn int) *pageMeta { return s.lookupMeta(vpn) }

// entryCount returns the transient cache population. Caller holds structMu
// in parallel mode.
func (s *SSP) entryCount() int { return s.entries.n }

// resetEntries empties the transient cache and its quiescent index (crash,
// recovery); the chunks go back to the collector.
func (s *SSP) resetEntries() {
	for i := range s.entries.dir {
		s.entries.dir[i].Store(nil)
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

func (s *SSP) clock(at engine.Cycles) {
	for {
		cur := s.now.Load()
		if int64(at) <= cur || s.now.CompareAndSwap(cur, int64(at)) {
			return
		}
	}
}

func (s *SSP) nowCycles() engine.Cycles { return engine.Cycles(s.now.Load()) }

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
	// The whole slow path — entry creation, TLB insertion (whose eviction
	// hook may fire) and the reference-count increment — runs under
	// structMu in parallel mode, so a page can never gain its first
	// reference while the epoch drain (which also holds structMu) is
	// deciding whether it is quiescent.
	s.lockStruct()
	meta, t := s.fetchMeta(vpn, ppn, t)
	s.env.TLBs[core].Insert(tlbsim.VPN(vpn), ppn)
	s.lockMeta(meta)
	meta.tlbRef++
	s.refTaken(meta)
	s.unlockMeta(meta)
	s.unlockStruct()
	return meta, t
}

// fetchMeta returns the SSP cache entry for vpn, creating one (allocating a
// slot) on a miss, and charges the SSP-cache access latency according to
// the L3-residency model (§4.2, Figure 9). Caller holds structMu in
// parallel mode.
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
	if s.parallel {
		s.residentMu.Lock()
		defer s.residentMu.Unlock()
	}
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
	for _, sid := range s.freeSlots {
		if msg := claim(s.slotShadow[sid].ppn1, fmt.Sprintf("freeslot%d", sid)); msg != "" {
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

// DebugPage exposes a page's SSP state for tests and forensics: the two
// frames and the current/committed bitmaps. ok is false when the page has
// no SSP cache entry.
func (s *SSP) DebugPage(vpn int) (ppn0, ppn1 memsim.PAddr, current, committed uint64, ok bool) {
	meta := s.lookupMeta(vpn)
	if meta == nil {
		return 0, 0, 0, 0, false
	}
	return meta.ppn0, meta.ppn1, meta.current, meta.committed, true
}
