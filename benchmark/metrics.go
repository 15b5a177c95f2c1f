package main

import "fmt"

// This file is the benchmark's vocabulary: the workloads, the end-to-end
// metrics with their regression bounds, and the per-layer metrics with the
// end-to-end metric each is expected to move. BENCHMARK.json at the repo
// root declares the same names; bench_test.go keeps the two in step.

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"tree-1c", "B+-tree txns on 1 core, working set fits L3 and TLB reach: the tlbsim/cachesim hit path plus the core commit pipeline"},
	{"sps-1c", "array swaps over 16 MiB, beyond L3 and TLB reach: TLB misses, consolidation and memsim dominate (SSP's worst case)"},
	{"serve-sim-4c", "4-core kv serving, open loop in simulated time under the deterministic window scheduler: journal, fences and winsched under contention"},
	{"serve-tcp-2c", "real internal/server over loopback, closed loop with 2 connections: the only path through parse, route, queue and reply"},
	{"crash-sweep", "power failure after every NVRAM write on 3 backends: machine construction, recovery and rollback dominate; violations must be 0"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// metricDef is one declared metric. Kind "sim" values are pure functions of
// (commit, seed) and must repeat bit for bit; kind "host" values are timings
// of this run: set-up and spans as medians over repetitions, host_ops_per_s
// off the fast side of the run's slices (fastRate in run.go).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Kind   string  // "sim" or "host"
	// Moves names, for a per-layer metric, the end-to-end metric (and
	// workload) a change to it should show up in.
	Moves string
}

// endToEnd lists the metrics every workload reports with -trace 0. The
// driver compares runs at different seeds on a shared host, so each bound is
// three times the widest spread (interquartile range over median, two sets of
// ten seeds) any workload showed on the 2-CPU sandbox, rounded up, or the
// contract's cap of 0.25; the README has the table. -compare on two same-seed
// result files still reports simulated drift to the last digit, whatever the
// bound.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Kind: "host"},
	{Name: "host_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, Kind: "host"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25, Kind: "host"},
	{Name: "sim_ctps", Unit: "1/s", Better: "higher", Bound: 0.05, Kind: "sim"},
	{Name: "sim_nvram_bytes_per_txn", Unit: "B", Better: "lower", Bound: 0.05, Kind: "sim"},
	{Name: "ssp_over_undo_tps", Unit: "ratio", Better: "higher", Bound: 0.05, Kind: "sim"},
	{Name: "ssp_over_redo_tps", Unit: "ratio", Better: "higher", Bound: 0.05, Kind: "sim"},
	{Name: "ssp_over_undo_nvram_writes", Unit: "ratio", Better: "lower", Bound: 0.05, Kind: "sim"},
	{Name: "sim_ack_p50_cycles", Unit: "cycles", Better: "lower", Bound: 0.25, Kind: "sim"},
	{Name: "sim_ack_p99_cycles", Unit: "cycles", Better: "lower", Bound: 0.25, Kind: "sim"},
}

// scoped lists the end-to-end metrics that exist on one workload only. The
// driver's contract wants every end-to-end metric from every workload, so
// these ride in the traced (-trace 1) output beside the per-layer metrics,
// reading 0 where they do not apply; -compare still holds them to a bound
// on the workload that owns them.
var scoped = []struct {
	metricDef
	Workload string
}{
	{metricDef{Name: "sim_ack_p99_cycles_relaxed", Unit: "cycles", Better: "lower", Bound: 0.25, Kind: "sim"}, "serve-sim-4c"},
	{metricDef{Name: "sim_slo_rate", Unit: "1/s", Better: "higher", Bound: 0, Kind: "sim"}, "serve-sim-4c"},
	{metricDef{Name: "tcp_get_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Kind: "host"}, "serve-tcp-2c"},
	{metricDef{Name: "tcp_set_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Kind: "host"}, "serve-tcp-2c"},
	{metricDef{Name: "sim_recovery_nvwrites_per_crash", Unit: "1/crash", Better: "lower", Bound: 0.05, Kind: "sim"}, "crash-sweep"},
}

// perLayer lists the metrics every workload reports with -trace 1. Source
// tags in the README: S = counter delta over the measured window, H = span
// the driver records around its own call, U = unit cost from a microloop on
// a standalone instance of the layer.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(moves string, kind, unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better, Kind: kind, Moves: moves})
		}
	}
	const (
		nsop  = "ns/op"
		cycop = "cycles/op"
	)
	// machine
	add("setup_s everywhere, crash-sweep most (every trap point builds a machine); flat on tree-1c throughput", "host", "ms", "lower",
		"machine.new_ms", "machine.restore_ms")
	add("host_ops_per_s on tree-1c, sps-1c", "host", nsop, "lower", "machine.begin_host_ns", "machine.commit_host_ns")
	add("sim_ctps on tree-1c, sps-1c", "sim", cycop, "lower",
		"machine.begin_sim_cycles", "machine.commit_sim_cycles", "machine.lock_sim_cycles")
	add("host_ops_per_s on serve-sim-4c only", "host", "ratio", "lower", "machine.win_barrier_share")
	add("host_ops_per_s on serve-sim-4c only", "sim", "1/op", "lower", "machine.win_grants_per_op")
	// pds / kv: body time is the load/store path (tlbsim + cachesim).
	add("host_ops_per_s on tree-1c (hits), sps-1c (misses)", "host", nsop, "lower", "pds.op_host_ns")
	add("sim_ctps on tree-1c, sps-1c", "sim", cycop, "lower", "pds.op_sim_cycles")
	add("host_ops_per_s on serve-*", "host", nsop, "lower", "kv.get_host_ns", "kv.set_host_ns")
	add("sim_ctps, sim_ack_p50_cycles on serve-*", "sim", cycop, "lower", "kv.get_sim_cycles", "kv.set_sim_cycles")
	// core (SSP)
	add("sim_ctps, sim_ack_p99_cycles, sim_slo_rate on serve-sim-4c and tree-1c", "sim", "cycles/txn", "lower", "core.barrier_wait_cycles_per_txn")
	add("sim_ctps, sim_ack_p99_cycles on serve-sim-4c (one shared journal shard)", "sim", "1/txn", "lower", "core.journal_records_per_txn")
	add("sim_nvram_bytes_per_txn", "sim", "B/txn", "lower", "core.journal_bytes_per_txn")
	add("sim_ctps, sim_nvram_bytes_per_txn, host_ops_per_s on sps-1c only", "sim", "1/txn", "lower",
		"core.consolidations_per_txn", "core.consolidated_lines_per_txn")
	add("sim_ctps, sim_nvram_bytes_per_txn", "sim", "1/ktxn", "lower", "core.checkpoints_per_ktxn")
	add("sim_ctps on sps-1c", "sim", "ratio", "lower", "core.sspcache_miss_ratio")
	add("sim_ctps", "sim", "1/txn", "lower", "core.flip_broadcasts_per_txn")
	add("sim_ctps (software fall-back path)", "sim", "count", "lower", "core.fallback_txns")
	add("sim_ack_p99_cycles_relaxed on serve-sim-4c", "sim", "cycles", "lower", "core.harden_lag_cycles_mean")
	add("sim_recovery_nvwrites_per_crash on crash-sweep", "sim", "1/crash", "lower", "core.replayed_records_per_crash")
	// logging baselines: the denominators of the ssp_over_* ratios.
	add("ssp_over_undo_nvram_writes, ssp_over_undo_tps", "sim", "B/txn", "lower", "logging.undo_bytes_per_txn")
	add("ssp_over_redo_tps", "sim", "B/txn", "lower", "logging.redo_bytes_per_txn")
	add("ssp_over_redo_tps", "sim", "1/ktxn", "lower", "logging.writeback_stalls_per_ktxn")
	// wal
	add("machine.commit_host_ns -> host_ops_per_s on tree-1c", "host", nsop, "lower", "wal.append_host_ns", "wal.flush_host_ns")
	// tlbsim
	add("host_ops_per_s on tree-1c", "host", nsop, "lower", "tlbsim.lookup_hit_host_ns")
	add("host_ops_per_s, sim_ctps on sps-1c", "host", nsop, "lower", "tlbsim.miss_insert_host_ns")
	add("sim_ctps on sps-1c", "sim", "ratio", "lower", "tlbsim.l1_miss_ratio")
	add("sim_ctps on sps-1c (evictions trigger consolidation)", "sim", "1/txn", "lower", "tlbsim.misses_per_txn", "tlbsim.evictions_per_txn")
	// cachesim
	add("host_ops_per_s on tree-1c and serve-sim-4c; every sim_* identical", "host", nsop, "lower",
		"cachesim.load_l1hit_host_ns", "cachesim.load_miss_host_ns", "cachesim.store_hit_host_ns",
		"cachesim.flush_dirty_host_ns", "cachesim.retag_host_ns")
	add("host_ops_per_s (event count: compare beside it)", "sim", "1/txn", "lower", "cachesim.accesses_per_txn")
	add("sim_ctps", "sim", "ratio", "higher", "cachesim.l1_hit_ratio", "cachesim.l2_hit_ratio", "cachesim.l3_hit_ratio")
	add("sim_ctps", "sim", "1/txn", "lower", "cachesim.invalidations_per_txn")
	// buffercache: tier off in all five workloads; recorded as a before.
	add("nothing at the paper defaults (DRAM tier off)", "host", nsop, "lower", "buffercache.read_hit_host_ns", "buffercache.read_miss_host_ns")
	// memsim
	add("host_ops_per_s on sps-1c", "host", nsop, "lower", "memsim.readline_host_ns", "memsim.writeline_host_ns")
	add("machine.new_ms -> all setup_s (crash-sweep most), peak_rss_mb", "host", "ms", "lower", "memsim.new_192mb_ms", "memsim.new_32mb_ms")
	add("sim_nvram_bytes_per_txn", "sim", "1/txn", "lower", "memsim.nvram_read_lines_per_txn", "memsim.nvram_write_lines_per_txn")
	add("sim_nvram_bytes_per_txn", "sim", "B/txn", "lower", "memsim.data_bytes_per_txn", "memsim.consolidation_bytes_per_txn", "memsim.checkpoint_bytes_per_txn")
	add("sim_ctps", "sim", "ratio", "higher", "memsim.row_hit_ratio")
	add("sim_ack_p99_cycles on serve-sim-4c", "sim", "ratio", "lower", "memsim.bank_busy_journal_share", "memsim.bank_busy_data_share")
	// server
	add("setup_s on serve-tcp-2c", "host", "ms", "lower", "server.new_ms")
	add("tcp_get_p50_us, tcp_set_p50_us, host_ops_per_s on serve-tcp-2c; nothing elsewhere", "host", "us", "lower",
		"server.tcp_p99_us", "server.tcp_p999_us")
	add("host_ops_per_s on serve-tcp-2c", "host", "us/op", "lower", "server.overhead_us_per_op")
	add("tcp_get_p50_us (hits copy a value)", "sim", "ratio", "higher", "server.hit_ratio")
	// loadgen
	add("subtracted from server.overhead_us_per_op; a generator bound shows here", "host", nsop, "lower", "loadgen.next_host_ns")
	add("subtracted from server.overhead_us_per_op", "host", "us/op", "lower", "loadgen.client_us_per_op")
	// crashsweep
	add("host_ops_per_s on crash-sweep (with machine.restore_ms)", "host", "ms/point", "lower", "crashsweep.run_ms_per_point", "crashsweep.verify_ms_per_point")
	add("host_ops_per_s on crash-sweep (event count)", "sim", "count", "lower", "crashsweep.points")
	// host
	add("host_ops_per_s, peak_rss_mb on every workload", "host", "1/op", "lower", "host.allocs_per_op")
	add("host_ops_per_s, peak_rss_mb on every workload", "host", "B/op", "lower", "host.alloc_bytes_per_op")
	add("host_ops_per_s", "host", "ms", "lower", "host.gc_pause_ms")
	// trace
	add("the cost of recording spans: traced vs untraced host time per op", "host", "%", "lower", "trace.overhead_pct")
	add("share of the traced window's wall time no span covers", "host", "%", "lower", "trace.host_residual_pct")
	add("simulated cycles no span covers: must read 0 on tree-1c and sps-1c", "sim", "cycles", "lower", "trace.cycle_gap")
	for _, s := range scoped {
		d := s.metricDef
		d.Moves = fmt.Sprintf("end-to-end on %s (bound %v under -compare)", s.Workload, d.Bound)
		out = append(out, d)
	}
	return out
}

// metricSet is a named bag of measured values.
type metricSet map[string]float64

// merge copies o's values into m.
func (m metricSet) merge(o metricSet) {
	for k, v := range o {
		m[k] = v
	}
}

// declared is the shape of BENCHMARK.json.
type declared struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []declaredWorkload `json:"workloads"`
	EndToEnd   []declaredMetric   `json:"end_to_end"`
	PerLayer   []declaredMetric   `json:"per_layer"`
}

type declaredWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// runSeconds is the run length BENCHMARK.json asks the driver for, baselines
// and set-up included: as long as the driver's time limit allows five
// workloads with a margin, because what steadies host_ops_per_s is the number
// of slices a run takes — three sps-1c repetitions at the least, eight of
// tree-1c on a quiet host.
const runSeconds = 24

// describe renders the tables above as BENCHMARK.json
// (`go run ./benchmark -describe > BENCHMARK.json`).
func describe() declared {
	d := declared{
		Command:    []string{"go", "run", "./benchmark"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		d.Workloads = append(d.Workloads, declaredWorkload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		bound := m.Bound
		d.EndToEnd = append(d.EndToEnd, declaredMetric{m.Name, m.Unit, m.Better, &bound})
	}
	for _, m := range perLayer {
		d.PerLayer = append(d.PerLayer, declaredMetric{m.Name, m.Unit, m.Better, nil})
	}
	return d
}
