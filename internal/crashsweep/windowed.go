// The windowed sweep class: the same trap-sweep contract, but with the
// script running concurrently on a multi-core machine under the
// deterministic bounded-lag window scheduler (Config.TimeWindow > 0).
// Determinism is what makes a concurrent trap sweep well-defined at all:
// every re-run of the script produces the same durable NVRAM write stream
// in the same order, so "power failure after write k" names the same cut
// point in every run — and the sweep then proves that window barriers and
// epoch hardening cannot reorder a durability point across a commit's
// acknowledgement.

package crashsweep

import (
	"fmt"
	"io"

	"repro/ssp"
)

// windowedPageStride separates the cores' page ranges: core c writes the
// script's pages shifted up by c*stride, so cores share journal shards and
// epochs but never a data page — verification stays per-core
// all-or-nothing.
const windowedPageStride = 16

// WindowedConfig is the machine the windowed sweep class runs on: a
// multi-core machine with the deterministic window scheduler, per-core
// journal shards and a durability epoch composed — the batching the
// scheduler must not be allowed to reorder durability points across.
func WindowedConfig(cores int) ssp.Config {
	cfg := Config(ssp.SSP)
	cfg.Cores = cores
	cfg.JournalShards = 2
	cfg.DurabilityEpoch = 50000
	cfg.TimeWindow = 4096
	return cfg
}

// runWindowed executes sc with one goroutine per core via Machine.Run:
// core c runs transactions i with i % cores == c against its own shifted
// page range. It returns the merged guaranteed-committed state plus each
// core's boundary transaction (nil entry if that core finished cleanly or
// failed between transactions). Commits are synchronous, so even with
// DurabilityEpoch > 0 every acknowledged transaction must survive.
func runWindowed(m *ssp.Machine, sc Script) (committed map[uint64]uint64, boundaries []map[uint64]uint64) {
	cores := m.Cores()
	m.Heap().EnsureMapped(nil, 1, sc.maxPage()+(cores-1)*windowedPageStride)
	perCommitted := make([]map[uint64]uint64, cores)
	boundaries = make([]map[uint64]uint64, cores)
	m.Run(func(c *ssp.Core) {
		id := c.ID()
		mine := map[uint64]uint64{}
		perCommitted[id] = mine
		shift := uint64(id*windowedPageStride) * ssp.PageBytes
		for i := id; i < len(sc.Txns); i += cores {
			if m.Mem().PoweredOff() {
				return
			}
			val := uint64(i + 1)
			pending := map[uint64]uint64{}
			c.Begin()
			for _, va := range sc.Txns[i] {
				c.Store64(va+shift, val)
				pending[va+shift] = val
			}
			c.Commit()
			if m.Mem().PoweredOff() {
				// The commit raced the power failure: its durability is
				// legitimately unknown, so it is this core's boundary.
				boundaries[id] = pending
				return
			}
			for va, v := range pending {
				mine[va] = v
			}
		}
	})
	committed = map[uint64]uint64{}
	for _, per := range perCommitted {
		for va, v := range per {
			committed[va] = v // page ranges are disjoint; no overwrites
		}
	}
	return committed, boundaries
}

// VerifyWindowed checks the recovered machine against a windowed run's
// expectation state: every committed value present, and every core's
// boundary transaction applied all-or-nothing, each judged independently
// (the cores' page ranges are disjoint, so one core's outcome cannot mask
// another's). The caches must be coherent before and after the reads.
func VerifyWindowed(m *ssp.Machine, committed map[uint64]uint64, boundaries []map[uint64]uint64) error {
	return coherent(m, func() error { return verifyWindowed(m, committed, boundaries) })
}

func verifyWindowed(m *ssp.Machine, committed map[uint64]uint64, boundaries []map[uint64]uint64) error {
	c := m.Core(0)
	expect := map[uint64]uint64{}
	for va, v := range committed {
		expect[va] = v
	}
	for id, b := range boundaries {
		if b == nil {
			continue
		}
		applied := false
		for va, v := range b {
			applied = c.Load64(va) == v
			break
		}
		for va, v := range b {
			if applied {
				expect[va] = v
			} else if want, wasCommitted := expect[va]; wasCommitted && c.Load64(va) != want {
				return fmt.Errorf("core %d boundary txn torn (applied=false): %#x got %d want committed %d", id, va, c.Load64(va), want)
			}
		}
	}
	for va, want := range expect {
		if got := c.Load64(va); got != want {
			return fmt.Errorf("addr %#x: got %d want %d", va, got, want)
		}
	}
	return nil
}

// SweepWindowedScript runs one script's full trap sweep over a windowed
// multi-core machine (cfg.TimeWindow must be > 0 — the sweep relies on the
// deterministic write stream): a reference run counts the durable NVRAM
// writes, then the script re-runs concurrently once per trap point with
// recovery and per-core all-or-nothing verification.
func SweepWindowedScript(cfg ssp.Config, sc Script, verbose bool, log io.Writer) (points, failures int) {
	if cfg.TimeWindow <= 0 {
		panic("crashsweep: windowed sweep needs Config.TimeWindow > 0 (free-running trap points are not reproducible)")
	}
	ref := ssp.MustNew(cfg)
	setup := ref.Stats().NVRAMWriteLines
	runWindowed(ref, sc)
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
		committed, boundaries := runWindowed(m, sc)
		m.Mem().SetWriteTrap(-1)
		if err := m.Recover(); err != nil {
			logf("  trap %d (script seed %#x): recovery error: %v\n", k, sc.Seed, err)
			failures++
			continue
		}
		m.Heap().EnsureMapped(nil, 1, sc.maxPage()+(m.Cores()-1)*windowedPageStride)
		if err := VerifyWindowed(m, committed, boundaries); err != nil {
			logf("  trap %d (script seed %#x): %v\n", k, sc.Seed, err)
			failures++
		} else if verbose {
			logf("  trap %d ok\n", k)
		}
	}
	return points, failures
}
