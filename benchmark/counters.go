package main

import (
	"fmt"
	"strings"

	"repro/internal/stats"
	"repro/ssp"
)

// counterMetrics turns one measured window's public stats.Stats counters
// into the S-tagged per-layer metrics, normalised per committed transaction.
// They are exact and deterministic: the program counts, the driver divides.
func counterMetrics(st *ssp.Stats, txns float64) metricSet {
	if txns == 0 {
		return metricSet{}
	}
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	per := func(v uint64) float64 { return float64(v) / txns }
	var busy uint64
	for _, b := range st.NVRAMBankBusy {
		busy += b
	}
	return metricSet{
		"core.barrier_wait_cycles_per_txn": per(st.CommitBarrierWait),
		"core.journal_records_per_txn":     per(st.JournalRecords),
		"core.journal_bytes_per_txn":       per(st.WriteBytes(stats.CatMetaJournal)),
		"core.consolidations_per_txn":      per(st.Consolidations),
		"core.consolidated_lines_per_txn":  per(st.ConsolidatedLines),
		"core.checkpoints_per_ktxn":        1000 * per(st.Checkpoints),
		"core.sspcache_miss_ratio":         ratio(st.SSPCacheMisses, st.SSPCacheHits+st.SSPCacheMisses),
		"core.flip_broadcasts_per_txn":     per(st.FlipBroadcasts),
		"core.fallback_txns":               float64(st.FallbackTxns),
		"core.harden_lag_cycles_mean":      ratio(st.EpochHardenLag, st.HardenedEpochs),

		"tlbsim.l1_miss_ratio":     ratio(st.TLB2Hits+st.TLBMisses, st.TLBHits+st.TLB2Hits+st.TLBMisses),
		"tlbsim.misses_per_txn":    per(st.TLBMisses),
		"tlbsim.evictions_per_txn": per(st.TLBEvictions),

		// Every access probes L1; the lower levels see only the misses above.
		"cachesim.accesses_per_txn":      per(st.CacheHits[0] + st.CacheMisses[0]),
		"cachesim.l1_hit_ratio":          ratio(st.CacheHits[0], st.CacheHits[0]+st.CacheMisses[0]),
		"cachesim.l2_hit_ratio":          ratio(st.CacheHits[1], st.CacheHits[1]+st.CacheMisses[1]),
		"cachesim.l3_hit_ratio":          ratio(st.CacheHits[2], st.CacheHits[2]+st.CacheMisses[2]),
		"cachesim.invalidations_per_txn": per(st.Invalidations),

		"memsim.nvram_read_lines_per_txn":    per(st.NVRAMReadLines),
		"memsim.nvram_write_lines_per_txn":   per(st.NVRAMWriteLines),
		"memsim.data_bytes_per_txn":          per(st.WriteBytes(stats.CatData)),
		"memsim.consolidation_bytes_per_txn": per(st.WriteBytes(stats.CatConsolidation)),
		"memsim.checkpoint_bytes_per_txn":    per(st.WriteBytes(stats.CatCheckpoint)),
		"memsim.row_hit_ratio":               ratio(st.RowHits, st.RowHits+st.RowMisses),
		"memsim.bank_busy_journal_share":     ratio(st.NVRAMBankBusy[stats.CatMetaJournal], busy),
		"memsim.bank_busy_data_share":        ratio(st.NVRAMBankBusy[stats.CatData], busy),
	}
}

// loggingMetrics is the logging.* share of counterMetrics, read from an
// UNDO-LOG or REDO-LOG window.
func loggingMetrics(b ssp.Backend, st *ssp.Stats) metricSet {
	txns := float64(st.Commits)
	if txns == 0 {
		return metricSet{}
	}
	if b == ssp.UndoLog {
		return metricSet{"logging.undo_bytes_per_txn": float64(st.WriteBytes(stats.CatUndoLog)) / txns}
	}
	return metricSet{
		"logging.redo_bytes_per_txn":        float64(st.WriteBytes(stats.CatRedoLog)) / txns,
		"logging.writeback_stalls_per_ktxn": 1000 * float64(st.WritebackStalls) / txns,
	}
}

// estimate multiplies each layer's event count per transaction (S) by its
// unit cost (U) and sets the sum beside the measured host time of one
// transaction (H). The counts are exact and the unit costs are real, but a
// microloop's cache-warm call is cheaper than the same call inside a
// transaction, and the glue between layers (backend lookups, maps, the
// write-set bookkeeping) has no unit cost at all — so this is an estimate
// with a printed residual, never a share that sums to 100%.
func estimate(l metricSet, txnHostNS float64) string {
	rows := []struct {
		layer, formula string
		ns             float64
	}{
		{"tlbsim", "accesses x lookup_hit + misses x miss_insert",
			l["cachesim.accesses_per_txn"]*l["tlbsim.lookup_hit_host_ns"] + l["tlbsim.misses_per_txn"]*l["tlbsim.miss_insert_host_ns"]},
		{"cachesim", "accesses x load_l1hit + NVRAM reads x load_miss",
			l["cachesim.accesses_per_txn"]*l["cachesim.load_l1hit_host_ns"] + l["memsim.nvram_read_lines_per_txn"]*l["cachesim.load_miss_host_ns"]},
		{"memsim", "NVRAM writes x writeline + NVRAM reads x readline",
			l["memsim.nvram_write_lines_per_txn"]*l["memsim.writeline_host_ns"] + l["memsim.nvram_read_lines_per_txn"]*l["memsim.readline_host_ns"]},
		{"wal", "journal records x append + 1 flush",
			l["core.journal_records_per_txn"]*l["wal.append_host_ns"] + l["wal.flush_host_ns"]},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "estimate: count per txn x unit cost, against %.0f host ns per txn measured (an estimate, not a share)\n", txnHostNS)
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-9s %10.0f ns  %5.1f%%  %s\n", r.layer, r.ns, 100*r.ns/txnHostNS, r.formula)
		sum += r.ns
	}
	fmt.Fprintf(&b, "  %-9s %10.0f ns  %5.1f%%  no unit cost covers it: machine/core/backend glue, and calls that run colder than their microloop\n",
		"residual", txnHostNS-sum, 100*(txnHostNS-sum)/txnHostNS)
	return b.String()
}
