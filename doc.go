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
// through it — nothing below the Core API waits on another core. Execution
// is serialised, so extra host cores add no wall-clock speed, while
// SIMULATED speedup curves are unaffected (conservative windows only fix
// the interleaving). Machine.WindowStats reports windows/grants/barrier
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
// channels × cores grid.
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
// internal/memsim keeps DRAM and NVRAM bytes behind a two-level directory
// (region.go): one slot per MiB of address space, a slot's chunk of 256 page
// pointers and per-page wear counters allocated when something in that MiB is
// first written, and a page's 4 KiB when that page is. A page never written
// reads as zeros from one shared page that is only ever copied out of. Every
// access is range-checked against DRAM and NVRAM first, so an address past
// capacity panics instead of reading zeros.
//
// A power failure's image is as sparse as the memory it came from, and it
// holds the pages by reference. NVRAM pages are shared copy-on-write: each
// chunk keeps one bit per page that marks it shared, and the first write
// through a Memory to a shared page copies it into a fresh 4 KiB buffer and
// clears the bit — the only page copy a power cycle leaves. NVRAMImage
// (behind Machine.Crash) walks the directory and hands its page pointers, in
// page order, to one immutable memsim.Image (ssp.Image) with the capacity it
// was taken from, marking them shared; NewFromImage (behind ssp.Restore)
// checks the capacity against the Config and installs the image's pointers
// marked shared, with no scan of the rest. This is the paper's own move
// turned on the simulator: remap instead of copy. Restore then checks the
// superblock: vm.Format records the backend and every layout field that
// places a region (Cores, MaxHeapPages, SSPSlots, JournalBytes,
// JournalShards, LogBytes) beside the magic, and an image formatted under
// another layout is refused with an error naming the first field that
// differs, before recovery parses it.
// Crash costs a pointer per page the run wrote, and Restore that plus
// recovery: Crash + Restore of the Table 2 machine (192 MB of NVRAM) holding
// a 2 000-key B-tree allocate 0.12 MiB, and holding a 4 MiB array 0.8 MiB,
// nearly all of it SSP recovery's per-slot state. No write through one
// Memory is ever visible in the image or in another Memory, so the crashed
// one may still Recover in place and one image may be restored any number of
// times, from any goroutine. Image.Bytes and memsim.ImageFromBytes convert
// to and from a flat copy, for tests. Restore boots with zero wear counters
// (Memory.PageWrites), where in-place Recover keeps them: the image holds
// contents, not wear.
//
// Recovery reads durable state that may be corrupt: a page-table entry that
// is not a frame base in the pool, a frame mapped twice (by two VPNs, or by
// a VPN and an SSP spare, vm.FrameAlloc.Rebuild), and an SSP slot line or
// journal record naming a VPN or frame outside the heap or the pool are
// errors of ssp.Restore and Machine.Recover naming the value, not panics.
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
// FlushAll and
// DebugValidate visit lines in set-index order, ways in order within a
// set, never in the order sets were first filled: FlushAll issues timed
// write-backs, so the visiting order is part of the simulated result
// (cachesim.TestFlushAllOrderGolden pins it to the values of the eagerly
// allocated array). DebugValidate costs what is cached, which is what lets
// the crash oracle run it after each recovery and again after its
// verification reads.
//
// The same rule holds for what build and Recover walk above the hardware:
// vm.FrameAlloc is a bump cursor over never-allocated frames between a hot
// LIFO stack and a cold FIFO queue (the allocation sequence of the full
// free list it replaced, vm.TestFrameAllocMatchesListModel), the page-table
// mirror reaches as far as the highest mapped page and is rebuilt through a
// 4 KiB window of the PTE array, wal.Scan reads a ring through a 4 KiB
// window and stops where parsing stops, and the wear statistics visit
// written pages only. DebugValidate visits lines through a callback and
// formats a message only for the violation it reports.
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
// ssp.New allocates 0.1 MiB on every backend; ssp.TestMachineAllocationBudget
// holds it to 0.6 MiB on the 192 MB Table 2 machine and
// crashsweep.TestMachineNewAllocationBudget to 128 KiB on the sweeps' 32 MB
// one. crashsweep.TestTrapPointAllocationBudget holds a trap point's run,
// recovery and verification on the sweep's machine to 64 KiB of heap.
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
// way tags (one host line for an 8-way set), one small record — the ways'
// recency order as a nibble permutation in one word (at most 16 ways), and
// valid, dirty and speculative (tx) way masks — and data in a separate pool
// grown in fixed chunks that never move; only the set directory and the
// chunk list hold Go pointers. Power-of-two levels index by mask, the
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
// Per-core write sets are short slices cleared at Begin: SSP's write-set
// buffer keeps its pages sorted (at most WSBEntries of them), so a commit
// neither allocates nor sorts, and Core's Table 3 record is one line bitmap
// per page. The replaced structures survive as the reference models of
// differential tests (cachesim.TestHierarchyMatchesScanModel,
// tlbsim.TestTLBMatchesScanModel); allocation guards pin a serial Load64
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
// per-shard: a hot core fills and drains only its own ring. Recovery is a
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
// treats prepares whose End sits in a lost epoch as absent — participant
// checkpoints stall (prepHolds) until the coordinator epoch hardens.
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
// # DRAM buffer cache and software wear-leveling
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
// ssp.Config.WearRotateWrites adds SoftWear-style software wear-leveling
// on the NVRAM side: memsim keeps per-frame cumulative write counters
// (Stats.FrameWrites histogram, FrameWriteMax/FrameWriteTotal/
// FramesWritten), and at page consolidation — the one moment a page's
// frames are quiescent and about to be re-journaled — any frame at or
// past the threshold is retired: committed lines are copied into a cold
// frame, the flip rides the ordinary journaled consolidation record
// (flushed before the retired frames are recycled, so replay can never
// land on reused frames), and the hot frame returns to the allocator's
// cold end (vm.FrameAlloc.FreeCold; plain LIFO Free would hand the same
// hot frame right back). `sspbench -exp wear` runs a hot-key write-heavy
// mix and reports the write-distribution skew: at small scale rotation
// cuts max/mean frame-write skew from ~24 to ~5-8 for under 3% of data
// writes spent on rotation copies. 0 (default) disables rotation.
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
// global commits, the End deferred into the coordinator's open epoch); and
// Windowed (per-core loops under the window scheduler with shards and an
// epoch). A new knob is a new row, never a new oracle. `go run
// ./cmd/sspcrash` sweeps the same table on fresh seeds, and a failure line
// names class, backend, script seed and trap index. The benchmark's
// crashsweep.RunScript and Verify are thin wrappers over the same runner
// and checker.
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
// workload
// smoke tests; the benchmark entry points are
// `go run ./cmd/sspbench -exp parallel -cores 4` (now with per-core
// commit-barrier wait shares from Stats.CommitBarrierWait),
// `go run ./cmd/sspbench -exp channels -cores 4`,
// `go run ./cmd/sspbench -exp journal -cores 4 -shards 4` (journal-shard ×
// core sweep with per-shard journal pressure and the CatMetaJournal bank
// occupancy that motivates it),
// `go run ./cmd/sspbench -exp crossshard -cores 4 -shards 4` (cross-shard
// transaction fraction × cores on the sharded memcached / partitioned
// vacation mixes, with global-commit and prepare-record traffic) and
// `go run ./cmd/sspbench -exp epoch -cores 4` (the relaxed-durability
// epoch-length × cores sweep with acknowledged-vs-durable TPS and mean
// harden lag) and
// `go run ./cmd/sspbench -exp cache -cores 4` /
// `go run ./cmd/sspbench -exp wear -cores 4` (the DRAM buffer tier and
// wear-leveling sweeps above).
//
// TestPaperFigures (paper_test.go) holds every table and figure of the
// paper's evaluation to ci/bench_baseline.json, exactly, and prints them:
//
//	go test -v -run TestPaperFigures .
package repro
