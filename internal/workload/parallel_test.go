package workload

import (
	"testing"

	"repro/ssp"
)

func backendsUnderTest() []ssp.Backend { return ssp.Backends() }

// TestParallelSmoke drives the concurrent engine across every backend and
// both sharded real workloads; under -race this is the first line of
// defence for the goroutine-per-core execution model.
func TestParallelSmoke(t *testing.T) {
	ops := 600
	if testing.Short() {
		ops = 200
	}
	for _, kind := range []Kind{Memcached, Vacation} {
		for _, b := range backendsUnderTest() {
			res := RunParallel(Params{Kind: kind, Backend: b, Clients: 4, Ops: ops,
				Items: 2048, Tuples: 2048, Keys: 2048})
			if res.Stats.Commits == 0 {
				t.Fatalf("%v/%v: no commits", kind, b)
			}
			if len(res.PerCore) != 4 {
				t.Fatalf("%v/%v: per-core results missing", kind, b)
			}
			var commits uint64
			for _, cr := range res.PerCore {
				if cr.Txns == 0 {
					t.Errorf("%v/%v core %d ran no transactions", kind, b, cr.Core)
				}
				commits += cr.Commits
			}
			if commits != res.Stats.Commits {
				t.Errorf("%v/%v: per-core commits %d != aggregate %d", kind, b, commits, res.Stats.Commits)
			}
			if res.TPS <= 0 {
				t.Errorf("%v/%v: non-positive TPS", kind, b)
			}
		}
	}
}

// TestRelaxedCrossShardCheckpointsKeepUp runs relaxed cross-shard commits
// on the default 64 KiB journal with two coordinators whose epochs keep
// overlapping. A participant shard that holds prepares of a buffered
// coordinator End must still checkpoint when it passes its high-water mark
// (it hardens the holding epochs first); deferring instead let the holds
// pile up until the ring overflowed.
func TestRelaxedCrossShardCheckpointsKeepUp(t *testing.T) {
	for _, b := range backendsUnderTest() {
		p := Params{Kind: MemcachedCross, Backend: b, Clients: 2, Ops: 4000, Items: 4096, Seed: 0xE0, CrossPct: 50, Relaxed: true}
		p.Machine.JournalShards = 4
		p.Machine.Channels = 4
		p.Machine.DurabilityEpoch = 30000
		res := RunParallel(p)
		if res.Stats.Commits == 0 {
			t.Fatalf("%v: no commits", b)
		}
		if b == ssp.SSP && (res.Stats.Checkpoints == 0 || res.Stats.GlobalCommits == 0 || res.Stats.HardenedEpochs == 0) {
			t.Fatalf("%v: the run drives no checkpoints, global commits or hardened epochs: %d, %d, %d",
				b, res.Stats.Checkpoints, res.Stats.GlobalCommits, res.Stats.HardenedEpochs)
		}
	}
}
