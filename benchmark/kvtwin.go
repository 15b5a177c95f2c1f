package main

import (
	"strconv"
	"time"

	"repro/internal/loadgen"
	"repro/ssp"
	"repro/ssp/kv"
)

// The kv twin is the in-process, serial, deterministic pass of a serve
// workload's request stream: the same sharded ssp/kv cache the server
// builds (one shard and arena per core, key -> core by key mod cores), the
// same generated operations, executed one at a time outside Machine.Run. It
// exists because the two real serving paths are opaque or noisy from
// outside: workload.RunServe exposes no per-call boundary to put a span on,
// and the TCP server's simulated clocks depend on host arrival order. The
// twin gives serve-tcp-2c its simulated metrics and both serve workloads
// their kv.* spans and stack-table rows.

type twinSpec struct {
	cfg       ssp.Config // Cores is the shard count
	items     int        // per-shard capacity
	stream    loadgen.Config
	streams   int  // forked streams, interleaved round-robin (the connections)
	warm      int  // SETs of keys 0..warm-1 before the window opens
	ops       int  // measured operations
	fullValue bool // 64-byte values (RunServe) instead of "v<key>" (the TCP client)
	relaxed   bool // ack writes with CommitRelaxed
}

type twinResult struct {
	Ops, Gets, Hits int
	Host            time.Duration
	Cycles          ssp.Cycles // simulated time the window took (latest core clock)
	Lat             []uint32   // per-request service time in simulated cycles
	Stats           ssp.Stats
	Machine         *ssp.Machine
	Wrong           int // GET hits whose value was not the key's
}

const twinValueBytes = 64

// twinValue renders key's value into buf: "v<key>", or that padded to the
// full value size.
func twinValue(buf []byte, key uint64, full bool) []byte {
	b := strconv.AppendUint(append(buf[:0], 'v'), key, 10)
	if full {
		for len(b) < twinValueBytes {
			b = append(b, '.')
		}
	}
	return b
}

// runTwin builds the machine and shards, warms them, and runs the measured
// window; rec, when non-nil, receives one request-root span per operation
// with machine.begin / kv body / machine.commit children.
func runTwin(sp twinSpec, rec *recorder) (twinResult, error) {
	var res twinResult
	m, err := ssp.New(sp.cfg)
	if err != nil {
		return res, err
	}
	res.Machine = m
	cores := m.Cores()

	// Serial set-up, shaped like server.New's.
	entry := 40 + twinValueBytes
	pages := (sp.items*entry+(sp.items/4)*8)/ssp.PageBytes*3/2 + 4
	shards := make([]*kv.Cache, cores)
	for i := range shards {
		c := m.Core(i)
		c.Begin()
		arena := m.NewArena(c, pages)
		shards[i] = kv.Create(c, arena, kv.Config{Buckets: sp.items / 4, Capacity: sp.items, ValueBytes: twinValueBytes})
		c.Commit()
	}
	val := make([]byte, 0, twinValueBytes)
	for k := uint64(0); k < uint64(sp.warm); k++ {
		c := m.Core(int(k % uint64(cores)))
		c.Begin()
		shards[k%uint64(cores)].Set(c, k, twinValue(val, k, sp.fullValue))
		c.Commit()
	}
	m.Drain()
	start := m.MaxClock()
	for i := 0; i < cores; i++ {
		m.Core(i).SetNow(start)
	}
	m.ResetStats()

	parent := loadgen.New(sp.stream)
	streams := make([]*loadgen.Stream, sp.streams)
	for i := range streams {
		streams[i] = parent.Fork(i)
	}
	commit := (*ssp.Core).Commit
	setClass := "SET sync"
	if sp.relaxed {
		commit = (*ssp.Core).CommitRelaxed
		setClass = "SET relaxed"
	}
	res.Ops = sp.ops
	res.Lat = make([]uint32, sp.ops)
	get := make([]byte, twinValueBytes)
	want := make([]byte, 0, twinValueBytes)

	t0 := time.Now()
	for n := 0; n < sp.ops; n++ {
		op := streams[n%len(streams)].Next()
		core := int(op.Key % uint64(cores))
		c, shard := m.Core(core), shards[core]
		at := c.Now()
		now := func() int64 { return int64(c.Now()) }
		if op.Kind == loadgen.OpGet {
			res.Gets++
			root := rec.open("kv.get", "GET", -1, now())
			sz, ok := shard.Get(c, op.Key, get)
			rec.close(root, now())
			if ok {
				res.Hits++
				if string(get[:sz]) != string(twinValue(want, op.Key, sp.fullValue)) {
					res.Wrong++
				}
			}
		} else {
			// DELs ride in the SET class: same pipeline, a smaller body.
			root := rec.open("request", setClass, -1, now())
			s := rec.open("machine.begin", setClass, root, now())
			c.Begin()
			rec.close(s, now())
			s = rec.open("kv.set", setClass, root, now())
			if op.Kind == loadgen.OpSet {
				shard.Set(c, op.Key, twinValue(val, op.Key, sp.fullValue))
			} else {
				shard.Delete(c, op.Key)
			}
			rec.close(s, now())
			s = rec.open("machine.commit", setClass, root, now())
			commit(c)
			rec.close(s, now())
			rec.close(root, now())
		}
		res.Lat[n] = uint32(c.Now() - at)
	}
	res.Host = time.Since(t0)
	res.Cycles = m.MaxClock() - start
	m.Drain()
	res.Stats = *m.Stats()
	return res, nil
}

// simMetrics derives the simulated end-to-end metrics of a twin window.
func (r twinResult) simMetrics() metricSet {
	return simMetrics(r.Ops, r.Machine.Seconds(r.Cycles), &r.Stats, r.Lat)
}

// twinSpanMetrics reads the kv.* and machine.* H metrics out of a traced kv
// twin pass (synchronous acks).
func twinSpanMetrics(aggs []spanAgg, l metricSet) {
	l["kv.get_host_ns"], l["kv.get_sim_cycles"] = perOp(aggs, "GET", "kv.get")
	l["kv.set_host_ns"], l["kv.set_sim_cycles"] = perOp(aggs, "SET sync", "kv.set")
	l["machine.begin_host_ns"], l["machine.begin_sim_cycles"] = perOp(aggs, "SET sync", "machine.begin")
	l["machine.commit_host_ns"], l["machine.commit_sim_cycles"] = perOp(aggs, "SET sync", "machine.commit")
}
