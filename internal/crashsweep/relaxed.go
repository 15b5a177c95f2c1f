package crashsweep

import (
	"fmt"
	"io"

	"repro/internal/engine"
	"repro/ssp"
)

// Relaxed-durability (CommitRelaxed) trap sweeps. The synchronous sweep's
// contract — everything committed survives — does not hold here by design:
// an acknowledged transaction may be lost to a crash until its epoch
// hardens. What MUST hold instead, and what VerifyRelaxed checks at every
// trap point:
//
//  1. atomicity: every transaction is wholly present or wholly absent;
//  2. epoch cut: on each journal shard, the lost transactions are a suffix
//     of that shard's acknowledgment order (a crash loses at most the open
//     epoch and never tears one — a survivor after a loss on the same
//     shard would mean recovery replayed past the cut);
//  3. Sync honored: every transaction acknowledged before a COMPLETED
//     Core.Sync survives;
//  4. no inventions: a transaction the trap run never acknowledged is
//     present only if it is the boundary transaction (the trap fired
//     inside its commit, which may land after an inline epoch harden).
//
// The relaxed scripts give every transaction a private write set (no
// address is ever written twice), so presence, absence and tearing are
// probeable per transaction even after an arbitrary subset is lost.

// syncAt reports whether the committing core issues a Sync after txn i.
func (sc Script) syncAt(i int) bool { return i < len(sc.Sync) && sc.Sync[i] }

// MakeRelaxedScript builds a relaxed-mode script: n transactions with
// disjoint write sets (txn i writes value i+1 to 1-3 private lines), a Sync
// roughly every sixth transaction, and — when cross is set — roughly half
// the transactions global, each writing one line on 2-4 private pages so
// its slots span journal shards and the commit runs the two-phase protocol
// with its End record deferred into the coordinator's open epoch.
func MakeRelaxedScript(seed uint64, n int, cross bool) Script {
	rng := engine.NewRNG(seed)
	sc := Script{Seed: seed}
	line := 0   // next private line in the packed local region (pages 1+)
	page := 100 // next private page for global write sets
	addr := func(p, l int) uint64 {
		return ssp.HeapBase + uint64(p)*ssp.PageBytes + uint64(l)*ssp.LineBytes
	}
	for i := 0; i < n; i++ {
		global := cross && rng.Intn(2) == 0
		var addrs []uint64
		if global {
			for j := 0; j < 2+rng.Intn(3); j++ {
				addrs = append(addrs, addr(page, rng.Intn(64)))
				page++
			}
		} else {
			for j := 0; j <= rng.Intn(3); j++ {
				addrs = append(addrs, addr(1+line/64, line%64))
				line++
			}
		}
		sc.Txns = append(sc.Txns, addrs)
		sc.Global = append(sc.Global, global)
		sc.Sync = append(sc.Sync, rng.Intn(6) == 0)
	}
	return sc
}

// RelaxedOutcome is what one (possibly trapped) relaxed script run
// guarantees: which transactions were acknowledged before power failed, and
// the highest index behind a Sync that completed on live power (-1: none).
type RelaxedOutcome struct {
	Acked     []bool
	SyncFloor int
}

// RunScriptRelaxed executes sc with CommitRelaxed (round-robin across
// cores, like RunScript) and the script's Sync points.
func RunScriptRelaxed(m *ssp.Machine, sc Script) RelaxedOutcome {
	out := RelaxedOutcome{Acked: make([]bool, len(sc.Txns)), SyncFloor: -1}
	m.Heap().EnsureMapped(nil, 1, sc.maxPage())
	for i, addrs := range sc.Txns {
		if m.Mem().PoweredOff() {
			break
		}
		c := m.Core(i % m.Cores())
		if sc.global(i) {
			c.BeginGlobal()
		} else {
			c.Begin()
		}
		for _, va := range addrs {
			c.Store64(va, uint64(i+1))
		}
		c.CommitRelaxed()
		if m.Mem().PoweredOff() {
			break
		}
		out.Acked[i] = true
		if sc.syncAt(i) {
			c.Sync()
			if !m.Mem().PoweredOff() {
				out.SyncFloor = i
			}
		}
	}
	return out
}

// VerifyRelaxed checks a recovered machine against the relaxed contract
// (see the package comment above) for one trap run's outcome. cfg must be
// the machine's configuration — the per-shard suffix rule needs the
// core-to-coordinator-shard mapping. The caches must be coherent before and
// after the reads.
func VerifyRelaxed(m *ssp.Machine, cfg ssp.Config, sc Script, out RelaxedOutcome) error {
	return coherent(m, func() error { return verifyRelaxed(m, cfg, sc, out) })
}

func verifyRelaxed(m *ssp.Machine, cfg ssp.Config, sc Script, out RelaxedOutcome) error {
	cores, shards := cfg.Cores, cfg.JournalShards
	if cores == 0 {
		cores = 1
	}
	if shards == 0 {
		shards = 1
	}
	c := m.Core(0)

	// 1. Atomicity, and which transactions survived.
	present := make([]bool, len(sc.Txns))
	for i, addrs := range sc.Txns {
		hits := 0
		for _, va := range addrs {
			if c.Load64(va) == uint64(i+1) {
				hits++
			}
		}
		switch hits {
		case 0:
		case len(addrs):
			present[i] = true
		default:
			return fmt.Errorf("txn %d torn: %d of %d private lines survived", i, hits, len(addrs))
		}
	}

	// 4. Nothing the run never acknowledged may appear, except the boundary
	// transaction (first unacknowledged index).
	boundary := len(sc.Txns)
	for i, acked := range out.Acked {
		if !acked {
			boundary = i
			break
		}
	}
	for i := boundary + 1; i < len(sc.Txns); i++ {
		if present[i] {
			return fmt.Errorf("txn %d survived but was never acknowledged (boundary is %d)", i, boundary)
		}
	}

	// 3. Sync floor.
	for i := 0; i <= out.SyncFloor; i++ {
		if !present[i] {
			return fmt.Errorf("txn %d lost behind the Sync completed after txn %d", i, out.SyncFloor)
		}
	}

	// 2. Per-coordinator-shard suffix rule: on each shard's stream, a loss
	// is final — the epoch cut can never resurrect a later transaction.
	lastLost := make([]int, shards)
	for si := range lastLost {
		lastLost[si] = -1
	}
	for i := 0; i < boundary; i++ {
		si := (i % cores) % shards
		if !present[i] {
			lastLost[si] = i
		} else if lastLost[si] >= 0 {
			return fmt.Errorf("txn %d survived on shard %d after txn %d was lost: epoch cut not a suffix",
				i, si, lastLost[si])
		}
	}
	return nil
}

// SweepRelaxedScript runs one relaxed script's full trap sweep over cfg:
// the reference run counts durable NVRAM writes, then the script re-runs
// once per trap point with recovery and relaxed-contract verification.
func SweepRelaxedScript(cfg ssp.Config, sc Script, verbose bool, log io.Writer) (points, failures int) {
	ref := ssp.MustNew(cfg)
	setup := ref.Stats().NVRAMWriteLines
	RunScriptRelaxed(ref, sc)
	ref.Drain()
	writes := int64(ref.Stats().NVRAMWriteLines - setup)

	logf := func(format string, args ...any) {
		if log != nil {
			fmt.Fprintf(log, format, args...)
		}
	}
	for k := int64(0); k <= writes; k++ {
		points++
		m := ssp.MustNew(cfg)
		m.Mem().SetWriteTrap(k)
		out := RunScriptRelaxed(m, sc)
		m.Mem().SetWriteTrap(-1)
		if err := m.Recover(); err != nil {
			logf("  trap %d (script seed %#x): recovery error: %v\n", k, sc.Seed, err)
			failures++
			continue
		}
		m.Heap().EnsureMapped(nil, 1, sc.maxPage())
		if err := VerifyRelaxed(m, cfg, sc, out); err != nil {
			logf("  trap %d (script seed %#x): %v\n", k, sc.Seed, err)
			failures++
		} else if verbose {
			logf("  trap %d ok\n", k)
		}
	}
	return points, failures
}
