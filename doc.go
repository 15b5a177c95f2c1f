// Package repro reproduces "SSP: Eliminating Redundant Writes in
// Failure-Atomic NVRAMs via Shadow Sub-Paging" (Ni, Zhao, Litz, Bittman,
// Miller — MICRO 2019) as a self-contained Go library.
//
// The public API lives in repro/ssp (the simulated machine and durable
// transactions), repro/ssp/pds (persistent data structures) and
// repro/ssp/kv (a memcached-like persistent cache). The simulator
// substrates, the SSP mechanism, the logging baselines and the experiment
// harness live under internal/. The sections below describe each subsystem
// beyond the paper's Table 2 machine; the closing paragraphs list the
// commands that regenerate the paper's tables and figures.
//
// # Concurrency contract
//
// Two execution modes. Outside ssp.Machine.Run every call runs on the
// caller's goroutine and the simulation is bit-for-bit deterministic, as in
// the original single-goroutine model. Machine.Run(fn) invokes fn once per
// Core, each invocation on its own goroutine, and the window scheduler below
// lets one execute at a time. The rules:
//
//   - One goroutine per Core: a Core handle (Begin/Store64/Load64/Commit,
//     plus Heap/Arena allocation through it) belongs to the goroutine Run
//     hands it to, and must not be shared.
//   - Machine-level operations (Stats, WriteSet, Drain, Crash, Recover,
//     ResetStats, MaxClock, Restore) are not safe during a Run; call them
//     only before it starts or after it returns.
//   - Locks (ssp.Lock via Core.Acquire/Release) provide application-level
//     isolation, as in the paper; inside Run the scheduler queues waiters
//     and hands the lock over in simulated-time order.
//   - Allocation inside Run goes through per-core arenas
//     (Machine.NewArena), never the shared Heap.
//   - The whole run, cross-core timing included, is reproducible from its
//     seed; aggregate statistics are order-independent sums over per-core
//     shards.
//
// # Deterministic bounded-lag window scheduler
//
// Every Machine.Run goes through a conservative bounded-lag scheduler
// (internal/machine/winsched.go) with window W = ssp.Config.TimeWindow
// cycles (0, the default, selects 4096): cores advance in lockstep windows
// of W simulated cycles, and within each window exactly one core executes
// at a time — always the ready core with the smallest (clock, core index)
// — so every shared-hardware arbitration (memory bank and bus wheels,
// row-buffer transitions, cache ownership transfers, lock hand-off, epoch
// hardening) resolves in simulated-time order with a deterministic
// core-index tie-break. Two runs with the same seed and core count then
// produce byte-identical Stats, histograms included
// (workload.TestWindowedRunsByteIdentical). The scheduler knows two ways
// for a core to park: a lock wait (release hands the lock to the waiter
// with the smallest resume clock, not to whichever goroutine the host
// wakes) and a host-side block (Core.BlockExternal). No backend parks
// through it — nothing below the Core API waits on another core. Each
// core's fn runs as a coroutine (iter.Pull): a drive loop resumes the
// chosen core, and a park switches back to it, so a hand-off is two
// goroutine switches on one host thread, not a channel send that wakes a
// sleeping thread. A BlockExternal wait runs on a helper goroutine of the
// core, which on its return makes the core ready and drives the loop
// itself if no goroutine is driving; a panic in one core's fn ends the Run
// with a panic naming the core. Execution is serialised, so extra host
// cores add no wall-clock speed. W does move SIMULATED speedup curves,
// since a core books shared hardware up to one window ahead of the
// laggard's clock: TestPaperFigures' ScaleSweep row holds 4-core memcached
// at each swept W. Machine.WindowStats reports windows/grants/barrier
// stalls (deterministic) plus the host-side barrier-wait share used to pick
// the default W — at small scale W=4096 keeps the barrier-wait share near
// the serialisation floor while bounding cross-core lag. The server path's
// host-channel waits (Core.BlockExternal) remain live but host-dependent;
// everything inside the simulated machine is covered. The Windowed row of
// the crash class table (see "Crash oracle") trap-sweeps a windowed 4-core
// machine with journal sharding and durability epochs composed, proving
// window barriers cannot reorder durability points. `sspbench -exp scale`
// sweeps window size × cores (1-16) and reports speedup, barrier-wait share
// and per-shard journal pressure.
//
// Run used to have a second, free-running mode (TimeWindow 0): one host
// thread per core, no scheduler, cross-core timing in host order, and host
// locks in the caches, memory, SSP metadata, page table, frame allocator
// and REDO engine. It was at most 1.22× faster in wall-clock on any 8-core
// `-exp scale` cell (and slower on memcached), made five CI smokes
// host-dependent, and gave the one outlier simulated answer (8-core
// vacation). It was deleted with its locks; the five smokes
// (ParallelSmoke, CrossShardSmoke, RelaxedSmoke, ServeSmoke, CacheSmoke)
// were re-recorded once as deterministic metrics, and TestPaperFigures
// holds them, like the 8-core ScaleSmoke, at exact equality.
//
// # Multi-channel memory model
//
// The memory system supports multiple independent channels
// (ssp.Config.Channels, default 1 = the paper's single-bus Table 2 model;
// internals in internal/memsim). Each channel owns a slice of the banks and a
// data-bus bandwidth ledger; addresses interleave across channels every
// cache line (consecutive 64-byte lines rotate channels).
// Channel and bank selectors are swizzled with higher address bits
// (permutation-based interleaving), so power-of-2 strided regions such as the
// per-core logs spread across banks instead of aliasing onto one. Per-channel
// traffic and bus-occupancy counters land in stats.Stats (ChannelLines,
// ChannelBusyCycles), one stats shard per channel.
//
// Bank and bus occupancy is tracked in time-bucketed ledgers rather than
// "busy until" scalars, so cores queue only when their simulated
// windows genuinely overlap on the same resource; shared structures with a
// serial protocol — REDO's single write-back engine, cache-coherence
// ownership transfers — remain serialised in simulated time by design. The
// sweep `go run ./cmd/sspbench -exp channels -cores 4 -channels 8` reports
// committed TPS, speedup and per-channel bus utilization across the
// channels × cores grid. TestPaperFigures' ChannelSweep row gates 4-core
// SSP memcached on 1 and 4 channels with one journal shard (+11.3% cTPS
// from the extra channels) and on one channel with four shards, whose
// four-channel cell is ParallelSmoke's (−9.9%): more channels win only
// while a single journal shard is the bottleneck.
//
// # Memory and caches materialise on touch
//
// A machine is provisioned far beyond what a run touches — shadow
// sub-paging keeps two frames per virtual page, and every trap point of a
// crash sweep and every cell of an experiment grid builds a fresh one — so
// nothing in the simulated hardware is built to its configured capacity.
// Building a machine, dropping its volatile state at a power failure and
// recovering it cost what the run touched; a capacity only bounds.
//
// internal/memsim keeps DRAM and NVRAM bytes behind a directory (region.go)
// of 512 KiB slots: a slot's chunk of 128 page pointers and per-page shared
// marks (1 280 B) is allocated when something in those 512 KiB is first
// written, a page's table of eight 512-byte block pointers (one host cache
// line) when that page is, and a block's bytes when that block is. Pages
// stay the unit of addresses; the block is the unit of allocation and of
// copy-on-write sharing. A block never written reads as zeros from one
// shared block that is only ever copied out of. Every
// access is range-checked against DRAM and NVRAM first, so an address past
// capacity panics instead of reading zeros. A crash-sweep run writes a few
// lines each in about ten NVRAM pages, so it allocates a dozen or so blocks
// where it allocated ten whole pages
// (memsim.TestSparseMemoryAllocatesPerWrittenBlock holds a Memory writing
// one line per page to 1 KiB per page, 622 B measured). A channel's DRAM
// and NVRAM banks are allocated at its first access to each, so a run that
// never touches DRAM, as the sweep's does not, never pays for its banks.
//
// A power failure's image is as sparse as the memory it came from, and it
// holds the pages by reference. NVRAM is shared copy-on-write at two
// levels: each chunk keeps, per page, one bit that marks the page's block
// table shared and one bit per block that marks the block shared, so a
// table holds block pointers only. The first write through a Memory to a
// page whose table is shared copies the table (its block pointers, each
// then marked shared), and the first write to a shared block copies that
// block alone and clears its bit — the only copies a power cycle leaves.
// NVRAMImage (behind Machine.Crash) walks the directory and hands its page
// tables, in page order, to one immutable memsim.Image (ssp.Image) with the
// capacity it was taken from, marking them shared; NewFromImage (behind
// ssp.Restore) checks the capacity against the Config and installs the
// image's tables marked shared, with no scan of the rest. This is the
// paper's own move turned on the simulator: remap instead of copy, and copy
// sub-page blocks where a copy is due. Restore then checks the superblock:
// vm.Format records the backend and every layout field that places a region
// (Cores, MaxHeapPages, SSPSlots, JournalBytes, JournalShards, LogBytes)
// beside the magic, and an image formatted under another layout is refused
// with an error naming the first field that differs, before recovery parses
// it.
// Crash costs a pointer per page the run wrote, and Restore that plus
// recovery: Crash + Restore of the Table 2 machine (192 MB of NVRAM) holding
// a 2 000-key B-tree allocate 0.12 MiB, and holding a 4 MiB array 0.46 MiB,
// nearly all of it SSP recovery's per-slot state (its slot tables grow once,
// to the highest slot NVRAM or a surviving record names; wal.Scan copies a
// ring's payloads out of its scan window into one buffer). No write through one
// Memory is ever visible in the image or in another Memory, so the crashed
// one may still Recover in place and one image may be restored any number of
// times, from any goroutine. Image.Bytes and memsim.ImageFromBytes convert
// to and from a flat copy, for tests.
//
// Recovery and the crash oracle follow the same rule: a trap point's
// measured window — run, recover, verify — does only the work its
// simulated events ask for. vm.PageTable.Rebuild reads only the PTE pages
// NVRAM holds and sets only the entries that map a frame, so a rebuild costs
// the pages the run mapped, not MaxHeapPages (512 PTEs on the sweep's
// machine, 24 576 on the Table 2 default;
// vm.TestPageTableRebuildReadsWrittenPages counts the pages read).
// vm.FrameAlloc reserves SSP's N·T+O formatted spare frames a 64-frame word
// at a time. SSP recovery decodes every shard's journal records once, into
// one buffer, validates each shard's batches in place, replays a single
// shard's records without a merge, and allocates the rebuilt
// transient-cache entries together: 5 allocations per recovery of a sweep
// machine cut mid-script, where it made 15. The
// coherence check the oracle runs twice per point
// (cachesim.Hierarchy.DebugValidate) walks each level's materialised blocks
// and their valid masks, not every set of each touched directory slot;
// walks whose order the simulation sees (FlushAll, the way predictor's
// growth) keep set-index order. The oracle sizes its
// per-point slices once (crashsweep.TestTrapPointAllocationBudget bounds a
// point's bytes and objects).
//
// Recovery reads durable state that may be corrupt: a page-table entry that
// is not a frame base in the pool, a frame mapped twice (by two VPNs, or by
// a VPN and an SSP spare, vm.FrameAlloc.Rebuild), and an SSP slot line or
// journal record naming a VPN or frame outside the heap or the pool are
// errors of ssp.Restore and Machine.Recover naming the value, not panics.
// So is a checksum-valid journal record whose payload its kind does not
// admit (a wrong length, a slot past the SSP cache, a frame or VPN outside
// the pool or the heap) or whose kind is unknown, wherever it sits: inside
// a sealed batch, in the unsealed tail recovery drops, or beside a prepare
// no durable End commits. The error names the record's shard, position,
// TID and kind (core.TestRecoveryRejectsMalformedJournalRecords;
// core.FuzzRecoverJournal frames fuzzed records into a journal and
// recovers it). The per-core logs follow the same rule through
// txn.Env.DecodeLines.
//
// A bank's or bus's occupancy ring is sized by the simulated span it covers,
// not by its history bound: it materialises at the resource's first booking
// with 8 buckets and doubles whenever the epochs looked up since the last
// reset outgrow it, up to the 512-bucket (~2M-cycle) bound. A twelve-
// transaction crash script spans a few tens of thousands of cycles, so its
// rings hold a few dozen buckets, where a full ring is 8 KiB. While the
// queried epochs fit the ring no two share a slot, so every lookup answers
// as the full ring would; at full length the ring is the full ring slot for
// slot (memsim.TestWheelMatchesScanModel holds it to the fixed ring it
// replaced). ResetTiming — the reboot in Machine.Recover — empties the rings
// and the open rows in place and keeps their storage, so verification after
// recovery books into rings that already exist.
//
// internal/cachesim keeps a level's set index as a directory with one slot
// per 64 consecutive sets — the sets one page's lines index — and gives a
// set its block of ways at the first fill into it; looking up a set that has
// none is a miss, and DropAll unmaps the blocks it handed out and keeps
// their storage for the refill (the layout is in the next section but one).
// A block's line data follows the ways filled, not the ways it has: data is
// laid out way-major, one 512-byte chunk per way of 8 consecutive blocks,
// allocated when a line of it is first given bytes, and a set fills its
// lowest free way first, so a private level whose sets hold one line each —
// a crash-sweep run fills about 33 sets per level, one line in each —
// allocates 64 B of data per line where a block-major pool allocated every
// way's (1 KiB per set on the 16-way L3). The L3 goes further: it keeps
// bytes only for its dirty lines, so its data follows the lines filled or
// merged dirty, not the ways filled. A clean L3 line is a tag and flags; a
// hit on it reads the memory tier's value untimed (Mem.Peek: the DRAM
// buffer's copy if it holds the line, else the durable image) at the L3's
// latency. This is the value-authority chain — a dirty owner's private
// copy, else a dirty L3 copy, else memory — made structural: a clean L3
// line has no bytes of its own, so it cannot go stale, and the 12 MiB Table
// 2 L3 no longer duplicates in host memory what memsim holds. L1 and L2
// keep a copy of every line, so the hit path is unchanged. Tags stay
// block-major, 32 bits each (physical addresses below 256 GiB), in fixed
// 256-byte chunks, so a level's tags never move or copy as it grows; the
// chunk sizes are the ones at which a trap point allocates least. A level's
// way predictor starts at 32 entries and doubles as the lines it holds
// outgrow it, up to 1 024,
// re-placing each held line's prediction from its tag, and a set's record
// is 16 bytes (no set number: DropAll clears the directory chunks whole).
// cachesim.TestSparseLevelAllocatesPerFilledLine holds K clean lines in K
// distinct L3 sets to 176 B per line (143 measured; 207 while every filled
// way had data, 274 with 64-bit tags and the pool's 1.6 KiB before),
// cachesim.TestCleanL3FillsAllocateNoData counts no data chunk for clean L3
// fills and one for one dirty spill, and
// cachesim.TestLevelDataMatchesScanModel holds every valid line's data to
// the block-major pool's. Each TLB level's
// open-addressing index likewise starts at 16 slots and doubles as its
// entries outgrow half of it, up to twice the capacity.
// FlushAll visits lines in set-index order, ways in order within a set,
// never in the order sets were first filled: it issues timed write-backs,
// so the visiting order is part of the simulated result
// (cachesim.TestFlushAllOrderGolden pins it to the values of the eagerly
// allocated array). DebugValidate holds every private copy to the value
// the authority chain resolves (a clean L3 line has no bytes to compare)
// and walks only the materialised blocks, so it costs what is cached, which
// is what lets the crash oracle run it after each recovery and again after
// its verification reads.
//
// The same rule holds for what build and Recover walk above the hardware:
// vm.FrameAlloc is a cursor over the frames in ascending order that skips
// the ones in use, with one in-use bit per frame up to the highest one taken
// (the allocation sequence of the full free list it replaced,
// vm.TestFrameAllocMatchesListModel); no frame is ever returned to it. The
// page-table mirror reaches as far as the highest mapped page and is rebuilt
// through a 4 KiB window of the PTE array, and wal.Scan reads a ring once,
// forward, through a 4 KiB window, checks each record's checksum and TID
// once and stops at the first invalid record
// (wal.TestScanReadsEachWindowOnce counts the windows). DebugValidate visits lines
// through a callback and formats a message only for the violation it
// reports.
//
// SSP's cache is sized N·T+O (§4.1.2; 1152 entries on one core, 4416 on
// four), and a persistent slot plus a spare frame come with every entry,
// but a run hands out a few dozen. So the slot array is formatted lazily:
// core.NewSSP reserves the spare frames [0, N·T+O) in one
// FrameAlloc.ReserveRange step (frame i is slot i's spare, and the heap's
// first frame comes right after them, as after the eager format it
// replaced) and writes no slot line. Only a checkpoint writes one; a line
// NVRAM never held reads as zeros, which no encoded slot is, and means the
// formatted state — free, holding spare frame i, version 0. The slot tables
// grow to the highest slot handed out, and the free slots are a stack of
// freed ones above a cursor over the never-used ones, which hands slots out
// in the order the full free list did: slot 0 first, then the most
// recently freed. Recover decodes only the slot lines NVRAM holds (a page
// memsim.Memory.Written denies costs one check, an all-zero line one
// compare), grows the tables to the slots those lines and the journal name,
// rebuilds only those, and reserves the formatted slots' spares as one
// range after FrameAlloc.Rebuild; it is also the only page-table rebuild of
// an SSP recovery (Machine rebuilds the mirror itself only for the logging
// designs). Crash clears the tables and maps in place, at the cost of the
// slots used. crashsweep.TestSlotArrayMatchesEagerFormat holds every image
// to the same slot states, hand-out order and allocator free set as the
// image with the eager format's line in every slot line it lacks. Each TLB
// level grows its entry array as translations are first inserted, up to
// its capacity, and its Drop empties the index slots of the entries it
// holds, not the whole table.
//
// ssp.New allocates 0.03-0.04 MiB on every backend;
// ssp.TestMachineAllocationBudget holds it to 0.6 MiB on the 192 MB Table 2
// machine and crashsweep.TestMachineNewAllocationBudget to 34 KiB on the
// sweeps' 32 MB one (26.9-28.4 KiB measured).
// crashsweep.TestTrapPointAllocationBudget holds a trap point's run,
// recovery and verification on the sweep's machine to 23 KiB of heap
// (14.6-20.4 KiB measured).
//
// # SSP cache: victim policy and constant-time metadata
//
// The paper's SSP cache (§4.1.2, §4.2) is a small hardware table, so the
// three things the translate → fetchMeta → allocSlot → accessLat path asks
// of it cost the host a constant, whatever Config.Entries is. When no slot
// is free, allocSlot evicts the quiescent entry — no TLB caches the page
// (tlbRef == 0) and no open write set holds it (coreRef == 0) — with the
// LOWEST VPN, consolidating it first if it still has committed lines on
// its shadow frame, and panics when every entry is referenced. The policy
// makes the victim a function of simulated state alone. Three structures in
// internal/core serve it:
//
//   - The entry table (ssp.go, metaTable) is indexed by VPN, which is dense
//     from zero: a directory with one slot per 256 heap pages, sized from
//     the layout, a chunk allocated at the first store into it. lookupMeta
//     is two loads. Invariant: the population counter equals the entries
//     present.
//   - The quiescent index (slots.go, quiescentSet) is a bitmap over VPN
//     with one summary level, grown to the highest VPN added; the victim is
//     find-first-set. Invariant: it holds exactly the VPNs of entries with
//     tlbRef == 0 && coreRef == 0. Every change of either count updates it
//     (refTaken, refDropped), as do entry insertion, deletion, Crash and
//     Recover's rebuild.
//   - The L3-residency model (meta.go, lruSet) is a doubly linked list
//     threaded through an array indexed by slot id, most recently touched
//     first: a miss on a full set evicts the tail. Invariant: the list
//     holds each resident slot once, at most ResidentEntries of them.
//
// SSP.DebugCheckFrames
// checks all three invariants against a full scan of the table, and
// internal/core's differential tests hold the structures to the scan, sort
// and min-tick search they replaced (sspcache_test.go), which remain there
// as the reference models; TestEvictionCostIndependentOfEntries fails if an
// eviction at 4096 entries costs over 3× one at 256.
//
// # Host synchronisation and the hit path
//
// No host locks below ssp.Machine. The simulated hardware (cachesim,
// memsim, buffercache, vm) and the backends (internal/core,
// internal/logging) take no host lock and use no atomics: serial execution
// runs one core, and the window scheduler runs exactly one core at a time
// and hands the execution slot on through its own mutex and a channel, so
// everything the previous holder wrote happens before the next holder runs.
// The scheduler's mutex and the server's queues are the only host
// synchronisation left. Go's race detector checks the claim: every Run test
// goes through the grant, and CI repeats the Windowed and Parallel tests
// under -race. SSP's parallel-mode behaviour, batched consolidation, is
// simulated and applies to every Run (core.SSP.SetParallel).
//
// The protocol's lock order, for an implementation whose cores run at the
// same time (hardware, or a simulator that gives each core a host thread):
// structural state (entry-table mutation, the free-slot list, slot
// allocation and eviction, consolidation scheduling, checkpoint execution)
// → each journal shard's stream, dirty-slot set and epoch, taken in
// ascending shard index (a global commit takes every participant shard and
// the coordinator, and draws its TID while holding them all, so every
// stream stays TID-monotonic) → each page's bitmaps, reference counts and
// frame pointers → the leaf state (quiescent index, residency list,
// consolidation queue) → caches → page table → memory. A page's slot-shadow
// snapshot and its update version are taken under the page's lock; the
// coherence interconnect orders every cache operation; each memory channel
// orders its own bank and bus bookings.
//
// The directory decides who is probed. cachesim's directory holds, for every
// line some private cache holds, the sharer mask and the dirty owner, in an
// open-addressing table with no Go map that DropAll clears in place. The L3
// is not inclusive — an L3 victim does not back-invalidate private copies —
// so this state cannot live in the L3 lines. Invalidations, cache injection
// and discards visit the set bits of the sharer mask, not every core, which
// is exact because of an invariant DebugValidate checks after every
// recovery: every valid L1/L2 copy's core is a sharer, and the owner is a
// sharer. A store that hits a dirty L1 copy needs no directory access at
// all: the copy's core is then the owner and the only sharer.
//
// The layouts. A cache level is a structure of arrays: per set a block of
// 32-bit way tags (one host line for a 16-way set), one small record — the
// ways' recency order as a nibble permutation in one word (at most 16
// ways), and valid, dirty and speculative (tx) way masks — and data apart,
// way-major in fixed chunks that never move, one per way of 8 consecutive
// blocks; only the set directory and the chunk tables hold Go pointers. A
// line's data is one dependent load (its chunk's pointer) plus index
// arithmetic away; the L3's data chunks exist only for lines it has held
// dirty. Power-of-two levels index by mask, the
// 12288-set L3 by modulo. A small way predictor keyed by low line-address
// bits is checked before the set is scanned. Victim choice (first invalid
// way, else the LRU way without the tx flag, else the LRU way) is a few bit
// operations on the record, and it and set-index visiting order are those of
// the array-of-structs level with per-line LRU stamps they replaced. The miss
// path probes each level at most once per line: a probe's answer (the line,
// or its absence) is handed to the installs and spills below, the loaded L1
// line to Retag, and an L2 victim whose private copies were just invalidated
// leaves the directory without another probe
// (cachesim.TestMissPathScanCounts counts the set scans of each kind of
// miss). Each TLB level is a fully associative true-LRU array: a recency
// list linked by index and an open-addressing VPN index, with a
// most-recent-entry check before either.
// Per-core write sets are short slices cleared at Begin, on all three
// backends: SSP's write-set buffer keeps its pages sorted (at most
// WSBEntries of them), UNDO-LOG's and REDO-LOG's keep their lines sorted
// (UNDO-LOG's with each line's pre-transaction image), each found by binary
// search and reset in place at commit, abort and power failure, so a commit
// neither allocates nor sorts and flushes, logs and restores lines in
// ascending address order; Core's Table 3 record is one line bitmap per
// page. REDO-LOG's write-back queue moves its live tail to the front as it
// drains, so it never reallocates. The replaced structures survive as the
// reference models of differential tests (cachesim.TestHierarchyMatchesScanModel,
// tlbsim.TestTLBMatchesScanModel, logging.TestWriteSetMatchesScanModel);
// logging.TestCommitAllocatesNothing and ssp.TestGlobalCommitAllocatesNothing
// hold a warm commit to zero allocations; allocation guards pin a serial Load64
// hit, a Store64 into the write set, every kind of cache miss, Retag, Flush,
// WritebackInvalidate, InjectLine, Hierarchy.DropAll and TLB.Drop at zero.
//
// # Sharded SSP metadata journal
//
// The SSP metadata journal supports per-core sharding
// (ssp.Config.JournalShards, default 1 = the paper's single shared journal,
// max MaxJournalShards). Core i appends its commit batches to shard
// i mod JournalShards — an independent NVRAM ring with its own buffered
// tail line; transaction IDs come from one global allocator (a commit
// appends before any other core runs, so every stream stays
// TID-monotonic). Checkpointing is
// per-shard: a hot core fills and drains only its own ring. Recovery decodes
// each journal record once, into a typed record carrying its slot id and
// state, and the version high-water, the epoch cut, the end-TID set, batch
// validation, table sizing and replay all read those fields
// (core.TestRecoverDecodesEachJournalRecordOnce pins decodes = records
// scanned); UNDO-LOG, REDO-LOG and SSP's fall-back rollback read their
// per-core logs through one reader (txn.Env.ReadLogs) and roll back through
// one loop (txn.Env.Rollback). Recovery is a
// TID-merge — every shard is scanned and batch-validated independently
// (torn tails and batches without a durable End drop per shard, exactly as
// with one journal), the survivors merge by their globally monotonic TIDs,
// and a per-slot update version (persisted in both the slot array and each
// journal record) keeps a record left in one shard's ring from regressing a
// slot that another shard's checkpoint already advanced. The cross-shard
// crash semantics are enforced by the JournalShards, CrossShard and
// CrossShardCheckpoints rows of the crash class table (see "Crash oracle").
//
// # Cross-shard (global) transactions
//
// Core.BeginGlobal opens a failure-atomic section that may write pages
// owned by multiple arenas/journal shards. On SSP with JournalShards > 1
// such a section commits through a two-phase protocol layered on the
// commit pipeline of internal/core/commit.go: prepare records — payload
// identical to update records, including the slot update version — are
// appended and flushed into every participant shard (the shards owning the
// write-set pages' slots, ascending), then a single coordinator end record
// carrying the global TID is appended to the committing core's own shard
// and flushed; that one line write is the commit point. Slot-shadow
// publication follows only after it. Recovery applies a TID's prepare
// records from every shard iff its coordinator end record is durable, so a
// crash before the end rolls back every participant shard and a crash
// after it redoes all of them; the slot version guard still orders replay
// against participant-shard checkpoints. Checkpointing adds a dual rule: a
// COORDINATOR-shard checkpoint persists the participant slots of every
// global transaction whose end record its ring still holds before
// truncating, so prepares orphaned by the truncation are superseded by the
// slot array (recovery treats such version-superseded prepares as
// checkpointed remnants, not torn transactions). Applications must
// acquire the Locks of every structure a global section touches, in one
// consistent order — ascending shard/core index in the bundled workloads.
// Single-arena transactions (plain Begin, or BeginGlobal whose write set
// resolves to one shard, or any transaction at JournalShards=1) keep the
// exact single-shard fast path: same records, 24-byte payloads on the
// single-journal paper model, no extra traffic.
//
// # Commit-path batching (deleted)
//
// PR 5 (commit 56ae86b; `git show 56ae86b` for the design) put two
// beyond-paper knobs beside the paper's single commit path: EagerFlush, a
// Vilamb-style write-behind that clwb'd each stored unit as it aged out of
// a per-core queue, and GroupCommitWindow, which coalesced concurrent
// commits' journal legs behind a leader's flush ticket. Neither showed a
// win on any deterministic benchmark: the 8-core windowed memcached scale
// run was 8.1% faster with the group window off (5 143 994 → 5 558 842
// committed TPS at W=4096), and BenchmarkCommitPath had both knobs together
// at −15% (memcached) and −13% (vacation) against the paper model. Both
// were deleted, with the scheduler's ticket and rendezvous states they
// needed. What PR 5 fixed independently of them stays: the commit-time
// metadata barrier and the cross-shard prepare fan-out charge the max — not
// the sum — of their independent per-shard ring flushes
// (core.TestBarrierFlushChargesMax), and a global commit's prepare leg
// overlaps the data-flush fence, with only the coordinator End waiting for
// both.
//
// # Relaxed durability: epoch-batched commit (CommitRelaxed)
//
// Core.CommitRelaxed trades the durable-on-return guarantee for commit
// latency, governed by ssp.Config.DurabilityEpoch (cycles; 0, the default,
// makes CommitRelaxed identical to Commit and reproduces the synchronous
// model bit-for-bit). With an epoch configured, a relaxed commit appends
// its journal batch into its shard's ring and returns WITHOUT flushing:
// the acknowledgment is immediate, and durability arrives when the shard's
// open epoch hardens — an epoch-seal record is appended (reusing the
// stream's last TID, so a seal can never regress the TID order) and the
// ring flushes once for every commit buffered since the previous seal. An
// epoch hardens when its age reaches DurabilityEpoch (checked inline on
// the next commit), when Core.Sync is called (the explicit durability
// barrier: hardens every shard and waits), when a synchronous Commit or a
// checkpoint needs the shard flushed anyway, or at Machine.Drain.
//
// The crash contract, enforced per trap point by the Relaxed and
// CrossRelaxed rows of the crash class table (see "Crash oracle"): a
// crash loses at most the open epochs —
// every acknowledged-but-unhardened transaction disappears WHOLE (epoch
// seals are the only replay cut points in recovery: each shard's records
// past its last durable seal drop before the TID merge, so an epoch is
// never torn), losses on each shard are a suffix of that shard's
// acknowledgment order, and everything acknowledged before a completed
// Sync survives. Cross-shard (BeginGlobal) relaxed commits keep two-phase
// atomicity: prepares flush eagerly into participant shards, the
// coordinator End buffers in the coordinator's open epoch, and recovery
// treats prepares whose End sits in a lost epoch as absent. A participant
// shard's checkpoint first hardens every coordinator epoch that holds it
// (shardEpoch.holds), so its truncation never strands prepares whose End
// could still harden.
// Stats counters: RelaxedCommits, EpochSeals, HardenedEpochs,
// EpochHardenLag (mean ack-to-durable lag = lag/hardened), and after a
// recovery DroppedEpochRecords/LostEpochTxns, with survivors +
// LostEpochTxns <= RelaxedCommits.
//
// Measured (small scale, 4-core single-shard 4-channel memcached — the
// fence-floor-bound mix): the commit-barrier share of core-cycles falls
// 36.5% -> 0% and acknowledged cTPS rises ~1.7x over synchronous commit,
// at a mean harden lag of roughly the epoch length.
// `sspbench -exp epoch` sweeps epoch length × cores and reports the
// committed-vs-durable TPS spread; BENCH_6.json records the trajectory and
// TestPaperFigures holds RelaxedSmoke's Relaxed_ack_cTPS exactly.
//
// # Workload drivers
//
// Every figure comes from internal/workload, through one of three
// drivers: Run steps the client with the lowest clock (Tables 3–5, Figs
// 5–9), RunParallel runs each client's share on its own core goroutine
// under Machine.Run (the scaling, epoch and ablation rows), and RunServe
// paces an open-loop kv mix on every core under Machine.Run (the serve
// and cache rows, the benchmark's serve-sim-4c). They share one measured
// window: after setup it drains, aligns every core's clock to the latest,
// resets the counters and splits the operations across the cores; after
// the driver's body it reads the acknowledgment time, drains again and
// assembles the aggregate, TPS, CommittedTPS and per-core rows. Only the
// body differs. ParallelResult.Wall times exactly the Machine.Run call, so
// the benchmark's setup_s and host_ops_per_s split a RunServe call at it.
//
// Each deployment has one builder. The tree/hash microbenchmarks take
// their client's allocator (the shared heap under Run, a per-client arena
// under RunParallel); the serial memcached and vacation share one cache or
// table set under locks; the parallel driver's sharded memcached and
// partitioned vacation give each core its own shard, arena and lock. The
// cross-shard kinds are those two builders plus a coin: MemcachedCross and
// VacationCross with more than one client draw it per transaction, and
// CrossPct percent of draws run one BeginGlobal section over 2–4 shards
// (crossmix.go); every other kind draws nothing, so its random streams
// are the all-local ones. TestPaperFigures' ParallelKinds row gates each
// microbenchmark's and Vacation's RunParallel build at 2 cores.
//
// # Network KV front end and open-loop serve latency
//
// internal/server and cmd/sspserver expose the machine as a line-oriented
// TCP KV service (GET/SET/DEL/SYNC/STATS/QUIT): connection-handler
// goroutines parse requests and enqueue them to per-core worker queues;
// exactly Cores worker goroutines run inside Machine.Run, each owning one
// Core, one arena and one ssp/kv shard (keys route by key % Cores, SYNC to
// core 0), so the one-goroutine-per-Core contract holds with no ssp.Lock
// on the serve path. server.Config.Relaxed selects the acknowledgment
// model for writes: ack after Commit (including the journal fence) or
// after CommitRelaxed (durability bounded by DurabilityEpoch).
//
// internal/loadgen generates deterministic open-loop traffic — Zipfian or
// uniform keys, a seeded GET/SET/DEL mix, and index-computed arrival times
// (arrival_i = start + i*interval, no drift), so latency measured from the
// scheduled arrival to the ack includes queueing delay, the honest
// open-loop number. The same Stream/Pacer drive real sockets
// (loadgen.RunTCP, host nanoseconds) and the in-process serve driver
// (workload.RunServe, simulated cycles), and internal/stats.Histogram — a
// fixed-bucket log-scale histogram mergeable across cores — turns either
// into p50/p99/p999. `go run ./cmd/sspbench -exp serve` sweeps skew ×
// offered load × cores for sync vs relaxed acks;
// `go run ./cmd/sspserver -smoke` boots the real server on a loopback
// port and drives it over TCP (the CI smoke).
//
// # DRAM buffer cache
//
// ssp.Config.DRAMCacheFrames interposes a pager-style DRAM buffer tier
// (internal/buffercache) of that many 4 KiB frames between the CPU cache
// hierarchy and the NVRAM data frame pool — the front end every real NVRAM
// deployment runs that the paper's bare model omits. Shape: a sharded
// frame table with pin counts, per-shard LRU eviction and dirty
// write-back; frames live at real DRAM addresses of memsim, so hits and
// fills charge genuine DRAM bank/bus occupancy while the NVRAM banks stay
// idle. Only the data frame pool is buffered — journal, log, slot-array
// and page-table traffic is the durability mechanism itself and always
// passes through. Crash semantics (trap-swept by the Buffered/plain and
// Buffered/epoch rows of the crash class table): a dirty buffered line exists
// only for legally-volatile data (absorbed victim write-backs), commit
// flushes write through, and a commit fence covering a line whose only
// dirty copy was absorbed hardens it first — committed data is never
// only-in-DRAM past its fence, and power loss discards the tier whole.
// Counters: DRAMCacheReads/Hits/Misses/Absorbed/Hardens/WriteBacks/
// Evictions, with hits + misses = reads. 0 frames (default) is the bare
// paper model bit-for-bit. `sspbench -exp cache` sweeps frames × cores ×
// skew on a memcached mix with GET-path recency stamps
// (workload.ServeParams.TouchOnGet — the absorbable write class); at
// small scale the 4-core Zipfian point gains ~1.1x cTPS with ~6% of
// NVRAM data-write lines removed, and the uniform point ~16%.
//
// Software wear-leveling used to sit beside it: ssp.Config.WearRotateWrites
// (SoftWear-style, beyond the paper; the design is in
// `git show c58810b:internal/core/consolidate.go`) retired, at page
// consolidation, a frame whose per-page NVRAM write count had reached the
// threshold to the cold end of the frame pool, and `sspbench -exp wear`
// reported the write-distribution skew. No gated figure and no benchmark
// workload ran with it on, yet every NVRAM line write paid for its per-page
// counter and every Stats call for a walk over the written frames. It was
// deleted with the counters, the rotation statistics and the frame
// allocator's Free paths, which only it used.
//
// # Crash oracle
//
// internal/crashsweep checks every backend's failure-atomicity contract
// against one executable model. A Script is data: transactions (txn i
// stores i+1 to its write set on core i mod Cores), BeginGlobal and Sync
// marks, and three run choices — synchronous or relaxed commits, a
// non-transactional spray before every transaction, and serial
// round-robin or concurrent execution (Machine.Run, each core's pages
// shifted apart). One runner executes it and records, per transaction,
// whether and in what order it was acknowledged or was in flight on its
// core at power-off, plus the sync floor: the acknowledgements made before
// a Sync that completed on live power. The trap sweep re-runs the script
// once per NVRAM write k with power failing after write k (a prefix cut of
// the issue-ordered write stream), recovers, and one checker decides
// whether the recovered memory is a legal state:
//
//  1. Presence. Synchronous acknowledgements and relaxed ones behind the
//     floor are present; transactions that never started are absent. The
//     rest are uncertain — the in-flight boundary, and relaxed
//     acknowledgements past the floor — and each is present iff its
//     witness, the lowest address no later-started transaction writes,
//     holds its value. An uncertain transaction without a witness fails.
//  2. Legality. On each journal shard (core c commits to shard c mod
//     JournalShards), lost relaxed acknowledgements are a suffix of that
//     shard's acknowledgement order: a crash loses at most the open epochs
//     and never resurrects a later commit.
//  3. Image. The present transactions' stores, applied in start order over
//     zeroed memory, give the one legal value of every address the script
//     writes, so a lost transaction's fresh addresses must read zero.
//  4. Compare. Every such address is read in ascending order, between two
//     runs of the cache coherence checker; a failure names the lowest
//     wrong address.
//
// Coverage is the class table, crashsweep.Classes. Every row runs on SSP,
// UNDO-LOG and REDO-LOG, and its name is the test that sweeps it
// (TestTrapSweep<name>/<backend>): AllBackends (one core);
// JournalShards/2 and /3 (commits round-robin over journal shards, which
// recovery TID-merges); CrossShard (two-phase global commits: cuts between
// participant prepares and around the coordinator End);
// CrossShardCheckpoints (1 KiB rings: checkpoints truncate a coordinator's
// End records while participants still hold the prepares);
// CommitKnobs/local (the one-core synchronous commit on its own seed) and
// CommitKnobs/epoch (synchronous commits with a durability epoch: a seal
// precedes every flush); Buffered/plain and Buffered/epoch (16 DRAM buffer
// frames behind a 32 KiB L2 and a 64 KiB L3, churned by the spray);
// Relaxed/local, Relaxed/short-epoch and Relaxed/shards (CommitRelaxed and
// epoch hardening; the short epoch hardens inline); CrossRelaxed (relaxed
// global commits, the End deferred into the coordinator's open epoch);
// CrossRelaxedCheckpoints (the same on 1 KiB rings under the window
// scheduler: participant checkpoints harden the holding coordinator
// epochs); Windowed (per-core loops under the window scheduler with shards
// and an epoch); Consolidation/serial (a 4-entry DTLB and no STLB, so SSP
// consolidates pages mid-script and cuts land inside the copy and around
// the flip record); Consolidation/parallel (the same on two cores under the
// window scheduler, 70 transactions, so the epoch drain consolidates the
// queued pages in batches every 32 commits); SubPage/4 (4-line, 256-byte
// sub-pages with the small TLB, so consolidation copies whole sub-pages,
// §4.3); and Fallback (a 1-page write-set buffer, so SSP's multi-page
// transactions take §3.5's software fall-back path). A new knob is a new
// row, never a new oracle. crashsweep.TestClassTableDrivesEveryMechanism
// sums the SSP reference runs of every row and requires consolidations,
// fall-backs, checkpoints, global commits, hardened epochs and DRAM
// write-backs; speculative-line spills and aborts are listed as expected
// zero until scripts can express them. `go run ./cmd/sspcrash` sweeps the
// same table on fresh seeds, and a failure line
// names class, backend, script seed and trap index. The benchmark's
// crashsweep.RunScript and Verify are thin wrappers over the same runner
// and checker.
//
// Recovery must itself survive a power failure: a failure at any NVRAM
// write of Recover, followed by a complete recovery, gives the same oracle
// verdict — all-or-nothing, no error, no panic. crashsweep.Sweep checks it
// with a nested cut on a sample of each script's trap points (every
// ceil((writes+1)/40)-th, about 40 per script; every point with
// CRASHSWEEP_NESTED_ALL set): for each NVRAM write j the point's recovery
// issues, a fresh machine fails at the same point, fails again after j
// writes of its first Recover, recovers once more on live power, and the
// same checker runs. There is no second oracle and no new class, so every
// row runs nested cuts on every backend, and sspcrash prints each row's
// nested cuts beside its trap points. Recovery writes little — UNDO-LOG's
// rollback lines, REDO-LOG's replayed lines, SSP's fall-back rollback and
// page-table repairs — so the in-tree sweep runs 6 983 nested cuts
// (UNDO-LOG 2 983, REDO-LOG 3 690, SSP 310) beside its 25 903 trap points.
//
// REDO-LOG recovery replays only the log that holds the highest TID, and
// TIDs are drawn at commit. A commit writes its data back in place before
// it returns and commits run one at a time, so only the last commit whose
// log reached NVRAM can have write-backs left to redo; another core's
// committed log is stale (a ring Reset is volatile), and replaying it would
// regress lines a later commit overwrote.
//
// The aggregate-vs-serial equivalence and the scheduler's ordering are
// enforced by `go test -race ./internal/machine -run TestParallel` and the
// workload tests. Every beyond-the-paper sweep `go run ./cmd/sspbench -exp
// <id>` prints has a TestPaperFigures row that calls the sweep itself at
// some of its cells, holds them to ci/bench_baseline.json exactly and logs
// the sweep's table:
//
//	-exp        row              gated values
//	parallel    ParallelScaling  BenchmarkParallelSweep: memcached on each backend, 1 and 4 cores
//	channels    ChannelSweep     BenchmarkChannelSweep: 4-core memcached, 1 and 4 channels x 1 and 4 shards
//	journal     JournalSweep     BenchmarkParallelSmoke, BenchmarkScaleSmoke: 4 and 8 cores, 4 shards
//	crossshard  CrossShardSweep  BenchmarkCrossShardSmoke: 2 cores at 50% global
//	epoch       EpochSweep       BenchmarkRelaxedSmoke: 4 cores, sync and a 100k-cycle epoch
//	serve       ServeSweep       BenchmarkServeSmoke: 4 cores, skew 0.99, half the probed capacity
//	cache       CacheSweep       BenchmarkCacheSmoke: 4 cores, bare and 1024 frames
//	scale       ScaleSweep       BenchmarkScaleSweep: 4 cores at each swept window
//
// The parallel, channels, journal, crossshard and scale sweeps are one grid
// (internal/experiments/grid.go): rows of machine configurations — backend,
// channels, journal shards, global-transaction percentage or scheduler
// window — by core counts, each cell's committed TPS against its row's own
// 1-core run, and one detail line per cell (per-core throughput and
// commit-barrier share, bus utilization, journal pressure,
// distributed-commit traffic or scheduler cost). A journal pressure line
// gives the journal banks' busy cycles summed over every bank, so their
// ratio to the window is the mean number of journal banks busy at once.
//
// TestPaperFigures (paper_test.go) holds every table and figure of the
// paper's evaluation to ci/bench_baseline.json, exactly, and prints them:
//
//	go test -v -run TestPaperFigures .
//
// The same pass gates the configuration surface: it records every
// ssp.Config that reaches ssp.New, adds the crash class table's, and fails,
// naming the field, when some Config field is never set away from its
// default, so a knob exists only with a gated cell that sets it.
package repro
