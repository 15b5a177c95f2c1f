package workload

import (
	"reflect"
	"testing"

	"repro/ssp"
)

// This file is the determinism regression for the bounded-lag window
// scheduler (Machine.TimeWindow > 0): same seed, same core count — the
// whole simulated Result, Stats and histograms included, must be
// byte-identical across runs. It also bounds the free-running vs windowed
// throughput divergence, so a conservatism bug (windows throttling
// simulated progress) cannot hide behind "it's deterministic".

// windowedMixes returns the 8-core mixes: sharded memcached, the
// cross-shard global mix, and the epoch-batched relaxed-durability mix.
func windowedMixes() []Params {
	base := ssp.Config{JournalShards: 4, Channels: 4, TimeWindow: 4096}
	mcd := Params{Kind: Memcached, Backend: ssp.SSP, Clients: 8, Ops: 1600,
		Items: 4096, Keys: 4096, Seed: 0xD17, Machine: base}

	cross := Params{Kind: MemcachedCross, Backend: ssp.SSP, Clients: 8, Ops: 1600,
		Items: 4096, Keys: 4096, CrossPct: 25, Seed: 0xD18, Machine: base}

	relaxed := Params{Kind: Memcached, Backend: ssp.SSP, Clients: 8, Ops: 1600,
		Items: 4096, Keys: 4096, Relaxed: true, Seed: 0xD19, Machine: base}
	relaxed.Machine.DurabilityEpoch = 100000
	return []Params{mcd, cross, relaxed}
}

// TestWindowedRunsByteIdentical runs each 8-core mix twice with the same
// seed under TimeWindow > 0 and requires the entire simulated Result —
// aggregate Stats, write-set profile, journal pressure, per-core rows —
// to be identical. Only host-side measurements (Wall, the scheduler's
// HostWait) may differ between the runs.
func TestWindowedRunsByteIdentical(t *testing.T) {
	for _, p := range windowedMixes() {
		p := p
		t.Run(p.Kind.String(), func(t *testing.T) {
			r1 := RunParallel(p)
			r2 := RunParallel(p)
			if !reflect.DeepEqual(r1.Result, r2.Result) {
				t.Fatalf("same-seed windowed runs diverged:\nrun1: %+v\nrun2: %+v", r1.Result, r2.Result)
			}
			if !reflect.DeepEqual(r1.PerCore, r2.PerCore) {
				t.Fatalf("per-core rows diverged:\n%+v\nvs\n%+v", r1.PerCore, r2.PerCore)
			}
			w1, w2 := r1.WindowSched, r2.WindowSched
			w1.HostWait, w2.HostWait = 0, 0
			if w1 != w2 {
				t.Fatalf("scheduler counters diverged: %+v vs %+v", w1, w2)
			}
			if r1.Stats.Commits == 0 {
				t.Fatal("no commits — determinism check ran nothing")
			}
		})
	}
}

// TestWindowedServeByteIdentical covers the histogram path: the open-loop
// serve mix (relaxed acks, durability epoch) run twice on a windowed
// 8-core machine must produce identical latency histograms and
// percentiles, not just identical counters.
func TestWindowedServeByteIdentical(t *testing.T) {
	p := ServeParams{Backend: ssp.SSP, Clients: 8, Ops: 1600, Relaxed: true,
		OfferedTPS: 4e6, Skew: 1.1, Seed: 0xD20}
	p.Machine.JournalShards = 4
	p.Machine.Channels = 4
	p.Machine.TimeWindow = 4096
	p.Machine.DurabilityEpoch = 100000
	r1 := RunServe(p)
	r2 := RunServe(p)
	if !reflect.DeepEqual(r1.AckHist, r2.AckHist) {
		t.Fatal("same-seed windowed serve runs produced different latency histograms")
	}
	if r1.LatencyP50 != r2.LatencyP50 || r1.LatencyP99 != r2.LatencyP99 || r1.LatencyP999 != r2.LatencyP999 {
		t.Fatalf("percentiles diverged: %d/%d/%d vs %d/%d/%d",
			r1.LatencyP50, r1.LatencyP99, r1.LatencyP999, r2.LatencyP50, r2.LatencyP99, r2.LatencyP999)
	}
	if r1.Stats != r2.Stats {
		t.Fatalf("serve stats diverged:\n%+v\nvs\n%+v", r1.Stats, r2.Stats)
	}
}

// TestWindowedVsFreeRunningThroughput bounds the divergence between the
// free-running and windowed schedules on a 2-core run: the window barrier
// must not throttle simulated progress (a conservatism bug would tank
// committed TPS), nor inflate it past what contention allows.
func TestWindowedVsFreeRunningThroughput(t *testing.T) {
	base := Params{Kind: Memcached, Backend: ssp.SSP, Clients: 2, Ops: 1200,
		Items: 4096, Keys: 4096, Seed: 0xD21}
	base.Machine.JournalShards = 2
	free := RunParallel(base)

	win := base
	win.Machine.TimeWindow = 4096
	windowed := RunParallel(win)

	if free.Cycles == 0 || windowed.Cycles == 0 {
		t.Fatal("a run finished with zero elapsed cycles")
	}
	freeTPS := float64(free.Stats.Commits) / float64(free.Cycles)
	winTPS := float64(windowed.Stats.Commits) / float64(windowed.Cycles)
	ratio := winTPS / freeTPS
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("windowed/free-running committed-throughput ratio %.3f outside [0.5, 2.0] — conservatism bug?", ratio)
	}
}
