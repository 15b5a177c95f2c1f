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
// The machine has two execution modes. Outside ssp.Machine.Run every call
// runs on the caller's goroutine and the simulation is bit-for-bit
// deterministic, as in the original single-goroutine model. Machine.Run(fn)
// invokes fn once per Core, each invocation on its own goroutine, so the
// simulated cores genuinely execute in parallel on the host. The rules:
//
//   - One goroutine per Core: a Core handle (Begin/Store64/Load64/Commit,
//     plus Heap/Arena allocation through it) belongs to the goroutine Run
//     hands it to, and must not be shared.
//   - Machine-level operations (Stats, WriteSet, Drain, Crash, Recover,
//     ResetStats, MaxClock, Restore) are not safe during a Run; call them
//     only before it starts or after it returns.
//   - Locks (ssp.Lock via Core.Acquire/Release) provide application-level
//     isolation, as in the paper; in concurrent mode they are backed by a
//     host mutex so simulated and host mutual exclusion coincide.
//   - Concurrent allocation goes through per-core arenas
//     (Machine.NewArena), never the shared Heap.
//   - Per-core results are deterministic for fixed seeds; aggregate
//     statistics are order-independent sums over per-core shards, while
//     cross-core timing (bank contention, lock hand-off order) depends on
//     the host schedule — unless the window scheduler below is on, which
//     makes the whole run, cross-core timing included, reproducible.
//
// # Deterministic bounded-lag window scheduler
//
// ssp.Config.TimeWindow (cycles; 0, the default, keeps the free-running
// mode above bit-for-bit) runs Machine.Run under a conservative bounded-lag
// scheduler (internal/machine/winsched.go): cores advance in lockstep
// windows of W simulated cycles, and within each window exactly one core
// executes at a time — always the ready core with the smallest
// (clock, core index) — so every shared-hardware arbitration the
// free-running mode resolves in host order (memory bank and bus wheels,
// row-buffer transitions, cache ownership transfers, lock hand-off, epoch
// hardening) resolves in simulated-time order with a deterministic
// core-index tie-break. Two runs with the same seed and core count then
// produce byte-identical Stats, histograms included
// (workload.TestWindowedRunsByteIdentical). The scheduler knows two ways
// for a core to park: a lock wait (release hands the lock to the waiter
// with the smallest resume clock, not to whichever goroutine the host
// wakes) and a host-side block (Core.BlockExternal). No backend parks
// through it — nothing below the Core API waits on another core. The price
// is host parallelism: execution is serialised, so wall-clock gains from
// extra host cores disappear while SIMULATED speedup curves are unaffected
// (conservative windows only fix the interleaving). Machine.WindowStats
// reports windows/grants/barrier stalls (deterministic) plus the host-side
// barrier-wait share used to pick the default W — at small scale W=4096
// keeps the barrier-wait share near the serialisation floor while bounding
// cross-core lag, and is the recommended setting. The server path's
// host-channel waits (Core.BlockExternal) remain live but host-dependent;
// everything inside the simulated machine is covered. The windowed
// crash class (crashsweep.TestTrapSweepWindowed) trap-sweeps a windowed
// 4-core machine with journal sharding and durability epochs composed,
// proving window barriers cannot reorder durability points.
// `sspbench -exp scale` sweeps window size × cores (1-16) and reports
// speedup, barrier-wait share and per-shard journal pressure; CI gates the
// windowed 8-core BenchmarkScaleSmoke at ±5%.
//
// # Multi-channel memory model
//
// The memory system supports multiple independent channels
// (ssp.Config.Channels, default 1 = the paper's single-bus Table 2 model;
// internals in internal/memsim). Each channel owns a slice of the banks, a
// data-bus bandwidth ledger and its own timing lock; addresses interleave
// across channels per ssp.Config.Interleave — InterleaveLine (consecutive
// 64-byte lines rotate channels; default) or InterleavePage (a 4 KiB page
// stays on one channel). Channel and bank selectors are swizzled with
// higher address bits (permutation-based interleaving), so power-of-2
// strided regions such as the per-core logs spread across banks instead of
// aliasing onto one. Per-channel traffic and bus-occupancy counters land in
// stats.Stats (ChannelLines, ChannelBusyCycles), one stats shard per
// channel.
//
// Bank and bus occupancy is tracked in time-bucketed ledgers rather than
// "busy until" scalars, so concurrent cores queue only when their simulated
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
// (region.go): one slot per MiB of address space, a slot's chunk of 256
// page pointers and per-page wear counters allocated when something in that
// MiB is first written, and a page's 4 KiB when that page is. A page never
// written reads as zeros from one shared page that is only ever copied out
// of. A page materialises under the same address-striped data lock that
// guards its bytes; a chunk is published by compare-and-swap, since its
// pages belong to different stripes. Every access is range-checked against
// DRAM and NVRAM before any lock is taken, so an address past capacity
// panics instead of reading zeros. NVRAMImage, Crash and ssp.Restore still
// trade a flat []byte (NewFromImage skips the image's all-zero pages), and
// bank and bus ledgers materialise at a resource's first booking.
//
// internal/cachesim keeps a level as a directory with one slot per 64
// consecutive sets — the sets one page's lines index — and allocates a
// set's ways at the first fill into it; looking up an unmaterialised set
// is a miss, and DropAll clears the directories. FlushAll and
// DebugValidate visit lines in set-index order, ways in order within a
// set, never in the order sets were first filled: FlushAll issues timed
// write-backs, so the visiting order is part of the simulated result
// (cachesim.TestFlushAllOrderGolden pins it to the values of the eagerly
// allocated array). DebugValidate costs what is cached, which is what lets
// every crashsweep oracle run it after each recovery and again after its
// verification reads.
//
// The same rule holds for what build and Recover walk above the hardware:
// vm.FrameAlloc is a bump cursor over never-allocated frames between a hot
// LIFO stack and a cold FIFO queue (the allocation sequence of the full
// free list it replaced, vm.TestFrameAllocMatchesListModel), the page-table
// mirror reaches as far as the highest mapped page, wal.Scan reads a ring
// through a 4 KiB window and stops where parsing stops, and the wear
// statistics visit written pages only. ssp.TestMachineAllocationBudget and
// CI's BenchmarkMachineNew gate keep a capacity-sized make from returning:
// ssp.New on the 192 MB Table 2 machine allocates 0.4 MiB.
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
//     the layout, a chunk allocated at the first store into it, directory
//     slots and entries published atomically. lookupMeta is two loads and
//     takes no lock in any mode; stores and deletes happen under structMu.
//     Invariant: the population counter equals the entries present.
//   - The quiescent index (slots.go, quiescentSet) is a bitmap over VPN
//     with one summary level, grown to the highest VPN added; the victim is
//     find-first-set. Invariant: it holds exactly the VPNs of entries with
//     tlbRef == 0 && coreRef == 0. Every change of either count updates it
//     before the page's lock is released (refTaken, refDropped), as do
//     entry insertion, deletion, Crash and Recover's rebuild.
//   - The L3-residency model (meta.go, lruSet) is a doubly linked list
//     threaded through an array indexed by slot id, most recently touched
//     first: a miss on a full set evicts the tail. Invariant: the list
//     holds each resident slot once, at most ResidentEntries of them.
//
// In parallel mode the quiescent index has one leaf lock, quiescentMu,
// beside residentMu below the page lock: structMu → journalMu[i] →
// pageMeta.mu → quiescentMu/residentMu/consolMu. SSP.DebugCheckFrames
// checks all three invariants against a full scan of the table, and
// internal/core's differential tests hold the structures to the scan, sort
// and min-tick search they replaced (sspcache_test.go), which remain there
// as the reference models; TestEvictionCostIndependentOfEntries fails if an
// eviction at 4096 entries costs over 3× one at 256.
//
// # Sharded SSP metadata journal
//
// The SSP metadata journal supports per-core sharding
// (ssp.Config.JournalShards, default 1 = the paper's single shared journal,
// max MaxJournalShards). Core i appends its commit batches to shard
// i mod JournalShards — an independent NVRAM ring with its own buffered
// tail line — under that shard's lock only; transaction IDs come from one
// global atomic allocator (drawn under the destination shard's lock, so
// every stream stays TID-monotonic), and slot-shadow mutation happens at
// per-page granularity under each page's own lock. Checkpointing is
// per-shard: a hot core fills and drains only its own ring. Recovery is a
// TID-merge — every shard is scanned and batch-validated independently
// (torn tails and batches without a durable End drop per shard, exactly as
// with one journal), the survivors merge by their globally monotonic TIDs,
// and a per-slot update version (persisted in both the slot array and each
// journal record) keeps a record left in one shard's ring from regressing a
// slot that another shard's checkpoint already advanced. The cross-shard
// crash semantics are enforced by the internal/crashsweep trap sweep on a
// multi-core multi-shard machine.
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
// checkpointed remnants, not torn transactions). Locking adds one rule to the
// contract above: a global commit takes every involved shard's journalMu in
// ascending shard index (the full order is still structMu → journalMu[i] →
// pageMeta.mu, with the journalMu tier internally ordered by index), so
// global and single-shard commits can never deadlock. Applications must
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
// The crash contract, enforced per trap point by the
// internal/crashsweep relaxed sweeps (TestTrapSweepRelaxed,
// TestTrapSweepCrossRelaxed): a crash loses at most the open epochs —
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
// CI gates BenchmarkRelaxedSmoke/Relaxed_ack_cTPS.
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
// passes through. Crash semantics (trap-swept by
// crashsweep.TestTrapSweepBuffered, alone and composed with
// DurabilityEpoch): a dirty buffered line exists
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
// The aggregate-vs-serial equivalence and race-freedom are enforced by
// `go test -race ./internal/machine -run TestParallel` and the workload
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
// The benchmarks in bench_test.go regenerate every table and figure of the
// paper's evaluation:
//
//	go test -bench=. -benchmem .
package repro
