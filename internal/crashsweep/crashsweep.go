// Package crashsweep is the crash-recovery fuzzing machinery shared by the
// cmd/sspcrash binary and the in-tree CI tests: it generates randomized
// transaction scripts, injects a power failure after every possible NVRAM
// write (a "trap sweep"), recovers, and verifies the all-or-nothing
// contract — committed transactions survive intact, the boundary
// transaction applies completely or not at all, and nothing else changes.
package crashsweep

import (
	"fmt"
	"io"
	"maps"
	"slices"

	"repro/internal/engine"
	"repro/ssp"
)

// Script is a deterministic transaction sequence: txn i writes value i+1 to
// every address in its write set. Global marks transactions opened with
// BeginGlobal (cross-shard two-phase commit on a multi-shard SSP machine);
// a nil/short Global slice means all-local. Sync marks transactions whose
// committing core issues a durability-upgrade Sync right after the commit —
// only meaningful to the relaxed runner (RunScriptRelaxed). Seed is what the
// generator built the script from; the sweeps print it with every failure.
type Script struct {
	Seed   uint64
	Txns   [][]uint64
	Global []bool
	Sync   []bool
}

// global reports whether txn i runs under BeginGlobal.
func (sc Script) global(i int) bool { return i < len(sc.Global) && sc.Global[i] }

// maxPage returns the highest heap page any transaction touches.
func (sc Script) maxPage() int {
	max := 1
	for _, addrs := range sc.Txns {
		for _, va := range addrs {
			if p := int((va - ssp.HeapBase) / ssp.PageBytes); p > max {
				max = p
			}
		}
	}
	return max
}

// MakeScript builds a random script of n transactions over a small page
// range, deliberately mixing repeated lines, multiple pages and ping-ponged
// lines across transactions.
func MakeScript(seed uint64, n int) Script {
	rng := engine.NewRNG(seed)
	sc := Script{Seed: seed}
	for i := 0; i < n; i++ {
		var addrs []uint64
		for j := 0; j <= rng.Intn(6); j++ {
			page := 1 + rng.Intn(5)
			line := rng.Intn(64)
			addrs = append(addrs, ssp.HeapBase+uint64(page)*ssp.PageBytes+uint64(line)*ssp.LineBytes)
		}
		sc.Txns = append(sc.Txns, addrs)
	}
	return sc
}

// MakeCrossScript builds a script in which roughly half the transactions
// are global: each global transaction writes lines of 2-4 distinct pages
// spread over a wider page range, so on a multi-shard machine its write
// set's slots belong to several journal shards and the commit runs the
// two-phase protocol. The trap sweep then injects a power failure between
// every pair of durable writes — i.e. between each participant shard's
// prepare flush, before and after the coordinator end record, and around
// the data flushes — and recovery must keep each global transaction
// all-or-nothing across every shard.
func MakeCrossScript(seed uint64, n int) Script {
	rng := engine.NewRNG(seed)
	const pages = 8
	sc := Script{Seed: seed}
	for i := 0; i < n; i++ {
		global := rng.Intn(2) == 0
		var addrs []uint64
		if global {
			nPages := 2 + rng.Intn(3)
			if nPages > pages {
				nPages = pages
			}
			seen := map[int]bool{}
			for len(seen) < nPages {
				page := 1 + rng.Intn(pages)
				if seen[page] {
					continue
				}
				seen[page] = true
				for j := 0; j <= rng.Intn(2); j++ {
					line := rng.Intn(64)
					addrs = append(addrs, ssp.HeapBase+uint64(page)*ssp.PageBytes+uint64(line)*ssp.LineBytes)
				}
			}
		} else {
			for j := 0; j <= rng.Intn(4); j++ {
				page := 1 + rng.Intn(pages)
				line := rng.Intn(64)
				addrs = append(addrs, ssp.HeapBase+uint64(page)*ssp.PageBytes+uint64(line)*ssp.LineBytes)
			}
		}
		sc.Txns = append(sc.Txns, addrs)
		sc.Global = append(sc.Global, global)
	}
	return sc
}

// Config returns the small machine the sweep runs on.
func Config(b ssp.Backend) ssp.Config {
	return ssp.Config{Backend: b, Cores: 1, NVRAMMB: 32, DRAMMB: 2, MaxHeapPages: 512}
}

// ShardedConfig is Config with multiple cores and SSP journal shards: the
// serial round-robin driver then interleaves commit batches across the
// journal shards (core i appends to shard i mod shards), so a trap sweep
// cuts the write stream between one shard's UpdateEnd and another's.
func ShardedConfig(b ssp.Backend, cores, journalShards int) ssp.Config {
	cfg := Config(b)
	cfg.Cores = cores
	cfg.JournalShards = journalShards
	return cfg
}

// BufferedConfig is Config with the DRAM buffer tier interposed and a
// shrunken cache hierarchy: 16 buffer frames in front of a 32 KiB L2 and a
// 64 KiB L3, so the buffered sweep's non-transactional spray
// (RunScriptBuffered) overflows every SRAM tier — dirty victim write-backs
// are absorbed in DRAM, buffer frames are evicted with NVRAM write-backs
// mid-script, and commit fences run with the tier in the path. Every one of
// those NVRAM writes is a trap point.
func BufferedConfig(b ssp.Backend) ssp.Config {
	cfg := Config(b)
	cfg.DRAMCacheFrames = 16
	cfg.L2KB = 32
	cfg.L3KB = 64
	return cfg
}

// The buffered runner's non-transactional spray range: disjoint from the
// script generators' transaction pages (1..8), so volatile spray data never
// shares a page with verified committed data.
const ntFirstPage, ntPages = 16, 32

// RunScriptBuffered is RunScript with a non-transactional store spray woven
// between the transactions: before each transaction, plain stores fill
// three whole pages of a 32-page window — enough cumulative footprint to
// overflow BufferedConfig's 64 KiB LLC and its 16-frame buffer both. The
// sprayed values are legally volatile (never verified); their role is to
// keep the buffer tier churning — absorbs, frame evictions, write-backs —
// so the trap sweep cuts the write stream inside every buffer window while
// the commit path's own durability contract is checked as usual.
func RunScriptBuffered(m *ssp.Machine, sc Script) (committed, boundary map[uint64]uint64) {
	committed = map[uint64]uint64{}
	last := sc.maxPage()
	if last < ntFirstPage+ntPages-1 {
		last = ntFirstPage + ntPages - 1
	}
	m.Heap().EnsureMapped(nil, 1, last)
	for i, addrs := range sc.Txns {
		if m.Mem().PoweredOff() {
			break
		}
		c := m.Core(i % m.Cores())
		for j := 0; j < 3*64; j++ {
			page := ntFirstPage + (i*3+j/64)%ntPages
			line := j % 64
			c.Store64(ssp.HeapBase+uint64(page)*ssp.PageBytes+uint64(line)*ssp.LineBytes, uint64(i*192+j+1))
		}
		val := uint64(i + 1)
		pending := map[uint64]uint64{}
		if sc.global(i) {
			c.BeginGlobal()
		} else {
			c.Begin()
		}
		for _, va := range addrs {
			c.Store64(va, val)
			pending[va] = val
		}
		c.Commit()
		if m.Mem().PoweredOff() {
			return committed, pending
		}
		for va, v := range pending {
			committed[va] = v
		}
	}
	return committed, nil
}

// RunScript executes sc until done or power-off, returning the guaranteed
// committed state and the boundary transaction's writes (nil if power held
// or failed between transactions). Transactions round-robin across the
// machine's cores — deterministically, one at a time — so on a multi-core
// multi-shard machine consecutive commits land in different journal shards.
// Script transactions marked Global open with BeginGlobal and commit via
// the cross-shard two-phase protocol where the backend supports it.
func RunScript(m *ssp.Machine, sc Script) (committed, boundary map[uint64]uint64) {
	committed = map[uint64]uint64{}
	m.Heap().EnsureMapped(nil, 1, sc.maxPage())
	for i, addrs := range sc.Txns {
		if m.Mem().PoweredOff() {
			break
		}
		c := m.Core(i % m.Cores())
		val := uint64(i + 1)
		pending := map[uint64]uint64{}
		if sc.global(i) {
			c.BeginGlobal()
		} else {
			c.Begin()
		}
		for _, va := range addrs {
			c.Store64(va, val)
			pending[va] = val
		}
		c.Commit()
		if m.Mem().PoweredOff() {
			return committed, pending
		}
		for va, v := range pending {
			committed[va] = v
		}
	}
	return committed, nil
}

// SweepScript runs sc once to count its durable NVRAM writes, then re-runs
// it once per possible trap point, recovering and verifying after each.
// Progress lines go to log (nil silences them); the returned counts are
// trap points checked and contract violations found.
func SweepScript(b ssp.Backend, seed uint64, txns int, verbose bool, log io.Writer) (points, failures int) {
	return SweepConfig(Config(b), seed, txns, verbose, log)
}

// SweepConfig is SweepScript over an arbitrary machine configuration
// (multi-core, multi-shard, custom capacities).
func SweepConfig(cfg ssp.Config, seed uint64, txns int, verbose bool, log io.Writer) (points, failures int) {
	return SweepScriptConfig(cfg, MakeScript(seed, txns), verbose, log)
}

// SweepCrossConfig is the cross-shard sweep: a MakeCrossScript script —
// roughly half the transactions global, spanning 2-4 pages whose slots
// belong to different journal shards — trap-swept over cfg. It covers
// every cross-shard commit trap point: between each participant shard's
// prepare flush, before/after the coordinator end record, and around the
// per-shard data flushes.
func SweepCrossConfig(cfg ssp.Config, seed uint64, txns int, verbose bool, log io.Writer) (points, failures int) {
	return SweepScriptConfig(cfg, MakeCrossScript(seed, txns), verbose, log)
}

// SweepScriptConfig runs one script's full trap sweep over cfg: a reference
// run counts the durable NVRAM writes, then the script re-runs once per
// possible trap point with recovery and all-or-nothing verification.
func SweepScriptConfig(cfg ssp.Config, sc Script, verbose bool, log io.Writer) (points, failures int) {
	return sweepScript(cfg, sc, RunScript, verbose, log)
}

// SweepBufferedScript is the buffered sweep class: the script runs through
// RunScriptBuffered on a machine with the DRAM buffer tier in the path
// (BufferedConfig, optionally with more knobs stacked), and the trap sweep
// cuts the durable write stream inside the tier's windows — between a dirty
// frame eviction's write-backs, around commit-fence hardens, between a
// fence's write-through and the journal record. Committed transactions must
// survive every cut; the sprayed volatile lines are allowed to vanish.
func SweepBufferedScript(cfg ssp.Config, sc Script, verbose bool, log io.Writer) (points, failures int) {
	return sweepScript(cfg, sc, RunScriptBuffered, verbose, log)
}

// sweepScript is the sweep engine shared by the runner variants.
func sweepScript(cfg ssp.Config, sc Script, run func(*ssp.Machine, Script) (map[uint64]uint64, map[uint64]uint64), verbose bool, log io.Writer) (points, failures int) {
	ref := ssp.MustNew(cfg)
	setup := ref.Stats().NVRAMWriteLines
	run(ref, sc)
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
		committed, boundary := run(m, sc)
		m.Mem().SetWriteTrap(-1)
		if err := m.Recover(); err != nil {
			logf("  trap %d (script seed %#x): recovery error: %v\n", k, sc.Seed, err)
			failures++
			continue
		}
		m.Heap().EnsureMapped(nil, 1, sc.maxPage())
		if err := Verify(m, committed, boundary); err != nil {
			logf("  trap %d (script seed %#x): %v\n", k, sc.Seed, err)
			failures++
		} else if verbose {
			logf("  trap %d ok\n", k)
		}
	}
	return points, failures
}

// coherent wraps one oracle's post-recovery reads in the cache coherence
// checker: once on the hierarchy as recovery left it, once after the reads
// refilled it.
func coherent(m *ssp.Machine, reads func() error) error {
	if msg := m.DebugValidateCaches(); msg != "" {
		return fmt.Errorf("caches incoherent after recovery: %s", msg)
	}
	if err := reads(); err != nil {
		return err
	}
	if msg := m.DebugValidateCaches(); msg != "" {
		return fmt.Errorf("caches incoherent after the verification reads: %s", msg)
	}
	return nil
}

// Verify checks the recovered machine against the expectation state: every
// committed value present, and the boundary transaction (if any) applied
// all-or-nothing; and the caches coherent before and after those reads.
func Verify(m *ssp.Machine, committed, boundary map[uint64]uint64) error {
	return coherent(m, func() error { return verify(m, committed, boundary) })
}

func verify(m *ssp.Machine, committed, boundary map[uint64]uint64) error {
	c := m.Core(0)
	if boundary != nil {
		applied := boundaryApplied(c, boundary)
		expect := make(map[uint64]uint64, len(committed)+len(boundary))
		maps.Copy(expect, committed)
		if applied {
			maps.Copy(expect, boundary)
		}
		for _, va := range sortedAddrs(expect) {
			if got, want := c.Load64(va), expect[va]; got != want {
				return fmt.Errorf("boundary txn torn (applied=%v): %#x got %d want %d", applied, va, got, want)
			}
		}
		return nil
	}
	for _, va := range sortedAddrs(committed) {
		if got, want := c.Load64(va), committed[va]; got != want {
			return fmt.Errorf("addr %#x: got %d want %d", va, got, want)
		}
	}
	return nil
}

// sortedAddrs returns the addresses of an expectation map in ascending
// order: the oracles read in that order, so the loads they issue, the cache
// state their coherence checks see and the address a failure names are a
// function of the trap point alone, never of Go's map iteration order.
func sortedAddrs(vals map[uint64]uint64) []uint64 {
	vas := make([]uint64, 0, len(vals))
	for va := range vals {
		vas = append(vas, va)
	}
	slices.Sort(vas)
	return vas
}

// boundaryApplied probes whether a boundary transaction's writes landed: it
// reads the transaction's lowest address. An empty write set never applied.
func boundaryApplied(c *ssp.Core, boundary map[uint64]uint64) bool {
	if len(boundary) == 0 {
		return false
	}
	va := sortedAddrs(boundary)[0]
	return c.Load64(va) == boundary[va]
}
