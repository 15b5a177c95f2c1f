// Package stats collects the counters the paper's evaluation reports:
// NVRAM/DRAM traffic split by purpose, cache and TLB behaviour, coherence
// messages, and transaction throughput. All figures and tables in the
// reproduction are derived exclusively from these counters.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// WriteCat classifies every NVRAM write by purpose. The paper's Figure 6
// counts the "logging" categories, Figure 7a counts everything, and
// Figure 7b breaks SSP's writes into Data / Journaling / Consolidation /
// Checkpointing.
type WriteCat int

// Write categories.
const (
	// CatData is application data reaching NVRAM: transactional write-set
	// flushes, cache write-backs of persistent lines, and redo-log style
	// post-commit write-backs.
	CatData WriteCat = iota
	// CatUndoLog is undo-log records (old values) written by UNDO-LOG and by
	// the software fall-back path.
	CatUndoLog
	// CatRedoLog is redo-log records (new values) written by REDO-LOG.
	CatRedoLog
	// CatMetaJournal is SSP metadata-journal records (§3.3).
	CatMetaJournal
	// CatCommitRecord is per-transaction commit/end markers for the logging
	// designs.
	CatCommitRecord
	// CatConsolidation is line copies performed by SSP page consolidation
	// (§3.4).
	CatConsolidation
	// CatCheckpoint is persistent-SSP-cache updates performed by
	// checkpointing (§4.1.2).
	CatCheckpoint
	// CatControl is small control-plane writes: log head/tail pointers, page
	// table entries, superblock fields.
	CatControl
	// CatRecovery is writes performed during crash recovery (rollback or
	// replay); excluded from steady-state figures.
	CatRecovery

	numCats
)

// String returns the category name used in reports.
func (c WriteCat) String() string {
	switch c {
	case CatData:
		return "Data"
	case CatUndoLog:
		return "UndoLog"
	case CatRedoLog:
		return "RedoLog"
	case CatMetaJournal:
		return "MetaJournal"
	case CatCommitRecord:
		return "CommitRecord"
	case CatConsolidation:
		return "Consolidation"
	case CatCheckpoint:
		return "Checkpoint"
	case CatControl:
		return "Control"
	case CatRecovery:
		return "Recovery"
	default:
		return fmt.Sprintf("WriteCat(%d)", int(c))
	}
}

// Categories lists all write categories in report order.
func Categories() []WriteCat {
	cats := make([]WriteCat, numCats)
	for i := range cats {
		cats[i] = WriteCat(i)
	}
	return cats
}

// MaxChannels bounds the per-channel counter arrays. The memory model
// supports at most this many independent channels (memsim.Config.Channels).
const MaxChannels = 16

// MaxJournalShards bounds the per-shard SSP metadata-journal counter arrays;
// vm.MaxJournalShards, the bound of vm.LayoutConfig.JournalShards, is this
// constant.
const MaxJournalShards = 16

// Stats is the full counter set for one simulation run. It is plain data;
// the zero value is ready to use.
type Stats struct {
	// NVRAM traffic.
	NVRAMReadLines  uint64
	NVRAMWriteLines uint64
	NVRAMWriteBytes [numCats]uint64

	// DRAM traffic.
	DRAMReadLines  uint64
	DRAMWriteLines uint64

	// Per-channel memory traffic (multi-channel interleaved model). Indexed
	// by channel; channels beyond Config.Channels stay zero.
	ChannelLines      [MaxChannels]uint64 // 64-byte transfers served per channel
	ChannelBusyCycles [MaxChannels]uint64 // data-bus occupancy charged per channel

	// NVRAMBankBusy is the NVRAM bank occupancy charged to writes, split by
	// write category — how long the banks spent absorbing journal records,
	// data flushes, checkpoints and so on. NVRAMBankBusy[CatMetaJournal] is
	// the metadata journal's serial-append Amdahl term made visible.
	NVRAMBankBusy [numCats]uint64

	// Row-buffer behaviour.
	RowHits   uint64
	RowMisses uint64

	// Cache behaviour, indexed by level (0=L1, 1=L2, 2=L3).
	CacheHits   [3]uint64
	CacheMisses [3]uint64

	// TLB behaviour (persistent-heap accesses only, as in §5.1).
	TLBHits      uint64 // L1 DTLB hits
	TLB2Hits     uint64 // L2 STLB hits
	TLBMisses    uint64
	TLBEvictions uint64 // departures from the whole hierarchy

	// Coherence traffic.
	FlipBroadcasts uint64 // SSP flip-current-bit messages (§4.1.1)
	Invalidations  uint64
	TxLineSpills   uint64 // speculative lines forced out of L3 to memory

	// SSP mechanism counters.
	SSPCacheHits      uint64
	SSPCacheMisses    uint64
	Consolidations    uint64
	ConsolidatedLines uint64
	Checkpoints       uint64
	JournalRecords    uint64
	FallbackTxns      uint64 // transactions diverted to the software path

	// CommitBarrierWait is the cycles commits spent blocked on their
	// data-flush fence (stage 2 of the SSP commit pipeline): the wait
	// between issuing the write-set clwbs and the slowest one landing.
	// Charged to the committing core's shard, so per-core reporting shows
	// which cores lose their window to flush overlap — the residual
	// multi-core gap the ROADMAP attributes to "data-flush overlap and
	// commit barriers". The logging baselines charge their equivalent
	// commit-critical persistence waits here too: UNDO-LOG's write-set
	// flush fence and REDO-LOG's write-back queue-admission stall.
	CommitBarrierWait uint64

	// Relaxed-durability counters (Config.DurabilityEpoch > 0).
	// RelaxedCommits counts transactions acknowledged by CommitRelaxed with
	// their durability deferred into a shard epoch. EpochSeals counts
	// recEpochSeal records appended (one per explicit ring flush);
	// HardenedEpochs counts the subset that closed an OPEN epoch — one with
	// at least one relaxed commit buffered — and EpochHardenLag accumulates,
	// for those, the cycles from the epoch's first relaxed commit to its
	// seal's durability (mean ack-to-durable lag = EpochHardenLag /
	// HardenedEpochs). After a crash, every relaxed commit either survives
	// recovery or is lost whole: LostEpochTxns counts the lost End records
	// the epoch cut discarded from NVRAM and DroppedEpochRecords every
	// record past a cut, so survivors + LostEpochTxns <= RelaxedCommits —
	// the gap is End records that never left the ring's volatile tail line
	// (lost the same way, just with no durable trace to count).
	RelaxedCommits      uint64
	EpochSeals          uint64
	HardenedEpochs      uint64
	EpochHardenLag      uint64
	DroppedEpochRecords uint64
	LostEpochTxns       uint64

	// DRAM buffer-cache counters (ssp.Config.DRAMCacheFrames > 0; all zero
	// in the paper's bare-NVRAM model). The buffer tier routes data-range
	// traffic between the CPU caches and NVRAM: reads that hit a DRAM frame
	// pay DRAM timing (DRAMCacheHits), misses fill from NVRAM
	// (DRAMCacheMisses; hits + misses == DRAMCacheReads), capacity
	// write-backs of victim lines are absorbed in DRAM instead of reaching
	// NVRAM (DRAMCacheAbsorbed — the tier's NVRAM write saving), commit
	// fences write dirty buffered lines through (DRAMCacheHardens — the
	// durability backstop), and evicting a dirty frame writes its dirty
	// lines back to NVRAM (DRAMCacheWriteBacks, over DRAMCacheEvictions
	// frame evictions).
	DRAMCacheReads      uint64
	DRAMCacheHits       uint64
	DRAMCacheMisses     uint64
	DRAMCacheAbsorbed   uint64
	DRAMCacheHardens    uint64
	DRAMCacheWriteBacks uint64
	DRAMCacheEvictions  uint64

	// Per-shard SSP metadata-journal counters (journal sharding). Indexed by
	// shard; shards beyond LayoutConfig.JournalShards stay zero.
	JournalShardRecords     [MaxJournalShards]uint64 // records appended per shard
	JournalShardCheckpoints [MaxJournalShards]uint64 // checkpoints drained per shard

	// Cross-shard (global) transaction counters: two-phase commits executed
	// and prepare records appended to participant shards. A global
	// transaction that resolves to a single shard commits on the fast path
	// and counts in neither.
	GlobalCommits  uint64
	PrepareRecords uint64

	// Logging mechanism counters.
	UndoRecords     uint64
	RedoRecords     uint64
	WritebackStalls uint64 // commits delayed by a full redo write-back queue

	// Transactions.
	Commits uint64
	Aborts  uint64

	// Recovery.
	Recoveries       uint64
	RecoveredTxns    uint64
	RolledBackTxns   uint64
	ReplayedRecords  uint64
	RecoveryNVWrites uint64
}

// AddWrite records one NVRAM line write of n bytes in category c.
func (s *Stats) AddWrite(c WriteCat, n int) {
	s.NVRAMWriteLines++
	s.NVRAMWriteBytes[c] += uint64(n)
}

// WriteBytes returns the bytes written in category c.
func (s *Stats) WriteBytes(c WriteCat) uint64 { return s.NVRAMWriteBytes[c] }

// TotalWriteBytes returns NVRAM write bytes summed over all categories.
func (s *Stats) TotalWriteBytes() uint64 {
	var t uint64
	for _, b := range s.NVRAMWriteBytes {
		t += b
	}
	return t
}

// LoggingBytes returns the "extra" (non-data) write bytes the paper's
// Figure 6 compares: log records, commit records, SSP journaling,
// consolidation and checkpointing.
func (s *Stats) LoggingBytes() uint64 {
	return s.NVRAMWriteBytes[CatUndoLog] +
		s.NVRAMWriteBytes[CatRedoLog] +
		s.NVRAMWriteBytes[CatMetaJournal] +
		s.NVRAMWriteBytes[CatCommitRecord] +
		s.NVRAMWriteBytes[CatConsolidation] +
		s.NVRAMWriteBytes[CatCheckpoint] +
		s.NVRAMWriteBytes[CatControl]
}

// CriticalPathLoggingBytes returns the extra bytes written on the commit
// critical path (excludes SSP's background consolidation/checkpointing).
func (s *Stats) CriticalPathLoggingBytes() uint64 {
	return s.NVRAMWriteBytes[CatUndoLog] +
		s.NVRAMWriteBytes[CatRedoLog] +
		s.NVRAMWriteBytes[CatMetaJournal] +
		s.NVRAMWriteBytes[CatCommitRecord]
}

// ActiveChannels returns the number of leading channel slots that saw any
// traffic (the effective channel count of the run; 0 when no memory traffic
// was recorded).
func (s *Stats) ActiveChannels() int {
	n := 0
	for i := range s.ChannelLines {
		if s.ChannelLines[i] > 0 {
			n = i + 1
		}
	}
	return n
}

// ActiveJournalShards returns the number of leading journal-shard slots
// that appended any records (the effective shard count of the run).
func (s *Stats) ActiveJournalShards() int {
	n := 0
	for i := range s.JournalShardRecords {
		if s.JournalShardRecords[i] > 0 {
			n = i + 1
		}
	}
	return n
}

// Add accumulates o into s field by field.
func (s *Stats) Add(o *Stats) {
	s.NVRAMReadLines += o.NVRAMReadLines
	s.NVRAMWriteLines += o.NVRAMWriteLines
	for i := range s.NVRAMWriteBytes {
		s.NVRAMWriteBytes[i] += o.NVRAMWriteBytes[i]
	}
	s.DRAMReadLines += o.DRAMReadLines
	s.DRAMWriteLines += o.DRAMWriteLines
	for i := range s.ChannelLines {
		s.ChannelLines[i] += o.ChannelLines[i]
		s.ChannelBusyCycles[i] += o.ChannelBusyCycles[i]
	}
	for i := range s.NVRAMBankBusy {
		s.NVRAMBankBusy[i] += o.NVRAMBankBusy[i]
	}
	s.RowHits += o.RowHits
	s.RowMisses += o.RowMisses
	for i := range s.CacheHits {
		s.CacheHits[i] += o.CacheHits[i]
		s.CacheMisses[i] += o.CacheMisses[i]
	}
	s.TLBHits += o.TLBHits
	s.TLB2Hits += o.TLB2Hits
	s.TLBMisses += o.TLBMisses
	s.TLBEvictions += o.TLBEvictions
	s.FlipBroadcasts += o.FlipBroadcasts
	s.Invalidations += o.Invalidations
	s.TxLineSpills += o.TxLineSpills
	s.SSPCacheHits += o.SSPCacheHits
	s.SSPCacheMisses += o.SSPCacheMisses
	s.Consolidations += o.Consolidations
	s.ConsolidatedLines += o.ConsolidatedLines
	s.Checkpoints += o.Checkpoints
	s.JournalRecords += o.JournalRecords
	s.FallbackTxns += o.FallbackTxns
	s.CommitBarrierWait += o.CommitBarrierWait
	s.RelaxedCommits += o.RelaxedCommits
	s.EpochSeals += o.EpochSeals
	s.HardenedEpochs += o.HardenedEpochs
	s.EpochHardenLag += o.EpochHardenLag
	s.DroppedEpochRecords += o.DroppedEpochRecords
	s.LostEpochTxns += o.LostEpochTxns
	s.DRAMCacheReads += o.DRAMCacheReads
	s.DRAMCacheHits += o.DRAMCacheHits
	s.DRAMCacheMisses += o.DRAMCacheMisses
	s.DRAMCacheAbsorbed += o.DRAMCacheAbsorbed
	s.DRAMCacheHardens += o.DRAMCacheHardens
	s.DRAMCacheWriteBacks += o.DRAMCacheWriteBacks
	s.DRAMCacheEvictions += o.DRAMCacheEvictions
	for i := range s.JournalShardRecords {
		s.JournalShardRecords[i] += o.JournalShardRecords[i]
		s.JournalShardCheckpoints[i] += o.JournalShardCheckpoints[i]
	}
	s.GlobalCommits += o.GlobalCommits
	s.PrepareRecords += o.PrepareRecords
	s.UndoRecords += o.UndoRecords
	s.RedoRecords += o.RedoRecords
	s.WritebackStalls += o.WritebackStalls
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.Recoveries += o.Recoveries
	s.RecoveredTxns += o.RecoveredTxns
	s.RolledBackTxns += o.RolledBackTxns
	s.ReplayedRecords += o.ReplayedRecords
	s.RecoveryNVWrites += o.RecoveryNVWrites
}

// Summary renders the counters as a human-readable block, used by cmd/sspsim.
func (s *Stats) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "NVRAM reads (lines):  %d\n", s.NVRAMReadLines)
	fmt.Fprintf(&b, "NVRAM writes (lines): %d\n", s.NVRAMWriteLines)
	fmt.Fprintf(&b, "NVRAM write bytes by category:\n")
	for _, c := range Categories() {
		if s.NVRAMWriteBytes[c] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-14s %d\n", c.String(), s.NVRAMWriteBytes[c])
	}
	fmt.Fprintf(&b, "DRAM reads/writes (lines): %d/%d\n", s.DRAMReadLines, s.DRAMWriteLines)
	if chans := s.ActiveChannels(); chans > 1 {
		fmt.Fprintf(&b, "per-channel lines:")
		for i := 0; i < chans; i++ {
			fmt.Fprintf(&b, " ch%d=%d", i, s.ChannelLines[i])
		}
		fmt.Fprintf(&b, "\n")
	}
	fmt.Fprintf(&b, "row-buffer hits/misses: %d/%d\n", s.RowHits, s.RowMisses)
	for i := 0; i < 3; i++ {
		fmt.Fprintf(&b, "L%d hits/misses: %d/%d\n", i+1, s.CacheHits[i], s.CacheMisses[i])
	}
	fmt.Fprintf(&b, "TLB l1-hits/l2-hits/misses/evictions: %d/%d/%d/%d\n", s.TLBHits, s.TLB2Hits, s.TLBMisses, s.TLBEvictions)
	fmt.Fprintf(&b, "flip broadcasts: %d, invalidations: %d\n", s.FlipBroadcasts, s.Invalidations)
	fmt.Fprintf(&b, "SSP cache hits/misses: %d/%d\n", s.SSPCacheHits, s.SSPCacheMisses)
	fmt.Fprintf(&b, "consolidations: %d (%d lines), checkpoints: %d, journal records: %d\n",
		s.Consolidations, s.ConsolidatedLines, s.Checkpoints, s.JournalRecords)
	if shards := s.ActiveJournalShards(); shards > 1 {
		fmt.Fprintf(&b, "journal shards (records/checkpoints):")
		for i := 0; i < shards; i++ {
			fmt.Fprintf(&b, " s%d=%d/%d", i, s.JournalShardRecords[i], s.JournalShardCheckpoints[i])
		}
		fmt.Fprintf(&b, "\n")
	}
	if s.NVRAMBankBusy[CatMetaJournal] > 0 {
		fmt.Fprintf(&b, "journal bank busy cycles: %d\n", s.NVRAMBankBusy[CatMetaJournal])
	}
	if s.GlobalCommits > 0 {
		fmt.Fprintf(&b, "cross-shard commits: %d (%d prepare records)\n", s.GlobalCommits, s.PrepareRecords)
	}
	if s.CommitBarrierWait > 0 {
		fmt.Fprintf(&b, "commit-barrier wait cycles: %d\n", s.CommitBarrierWait)
	}
	if s.RelaxedCommits > 0 {
		fmt.Fprintf(&b, "relaxed commits: %d, epochs hardened: %d (seals: %d)\n", s.RelaxedCommits, s.HardenedEpochs, s.EpochSeals)
		if s.HardenedEpochs > 0 {
			fmt.Fprintf(&b, "mean epoch harden lag (cycles): %d\n", s.EpochHardenLag/s.HardenedEpochs)
		}
	}
	if s.DroppedEpochRecords > 0 {
		fmt.Fprintf(&b, "epoch-cut records dropped: %d (%d acknowledged txns lost)\n", s.DroppedEpochRecords, s.LostEpochTxns)
	}
	if s.DRAMCacheReads > 0 {
		fmt.Fprintf(&b, "DRAM cache reads: %d (hits %d, misses %d)\n", s.DRAMCacheReads, s.DRAMCacheHits, s.DRAMCacheMisses)
		fmt.Fprintf(&b, "DRAM cache absorbed/hardened/writeback lines: %d/%d/%d (%d frame evictions)\n",
			s.DRAMCacheAbsorbed, s.DRAMCacheHardens, s.DRAMCacheWriteBacks, s.DRAMCacheEvictions)
	}
	fmt.Fprintf(&b, "undo/redo records: %d/%d, writeback stalls: %d\n", s.UndoRecords, s.RedoRecords, s.WritebackStalls)
	fmt.Fprintf(&b, "commits: %d, aborts: %d, fallback txns: %d\n", s.Commits, s.Aborts, s.FallbackTxns)
	return b.String()
}

// Table renders rows of (label, columns...) with aligned columns; helper for
// experiment output.
func Table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}

// SortedKeys returns the keys of m in sorted order; helper for deterministic
// report iteration.
func SortedKeys[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
