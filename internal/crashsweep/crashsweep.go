// Package crashsweep is the crash oracle of cmd/sspcrash and the in-tree
// tests: it fails power after every NVRAM write of a script (a "trap
// sweep"), recovers, and checks the memory against the states the script's
// commit contract allows at that cut. One runner, one checker and one
// sweep loop serve every class; doc.go's "Crash oracle" states the model.
package crashsweep

import (
	"fmt"
	"io"
	"math/bits"
	"slices"

	"repro/internal/engine"
	"repro/ssp"
)

// Script is everything one run does, as data. Txn i writes value i+1 to
// every address in its write set, on core i mod Cores. Global marks
// BeginGlobal transactions, Sync those followed by Core.Sync (short slices
// mean false). Relaxed commits with CommitRelaxed; Spray stores before
// every transaction (see spray); Concurrent, which Spray's window overlaps,
// runs the per-core loops under Machine.Run, core c's addresses shifted up
// c*coreStride pages. Class and Seed name the script in failure lines.
type Script struct {
	Class                      string
	Seed                       uint64
	Txns                       [][]uint64
	Global, Sync               []bool
	Relaxed, Spray, Concurrent bool
}

// coreStride and the spray window (pages 16-47) clear the generators' pages.
const coreStride, sprayFirstPage, sprayPages = 16, 16, 32

func at(bs []bool, i int) bool { return i < len(bs) && bs[i] }

func addr(page, line int) uint64 {
	return ssp.HeapBase + uint64(page)*ssp.PageBytes + uint64(line)*ssp.LineBytes
}

// lastPage is the highest heap page a run of sc touches on cores cores.
func (sc Script) lastPage(cores int) int {
	last := 1
	for _, addrs := range sc.Txns {
		for _, va := range addrs {
			last = max(last, int((va-ssp.HeapBase)/ssp.PageBytes))
		}
	}
	if sc.Concurrent {
		last += (cores - 1) * coreStride
	}
	if sc.Spray {
		last = max(last, sprayFirstPage+sprayPages-1)
	}
	return last
}

// lines draws 1 to k+1 random lines of pages 1..pages.
func lines(rng *engine.RNG, pages, k int) (addrs []uint64) {
	for j := 0; j <= rng.Intn(k); j++ {
		addrs = append(addrs, addr(1+rng.Intn(pages), rng.Intn(64)))
	}
	return addrs
}

// MakeScript builds n random transactions over pages 1-5, mixing repeated
// lines, multiple pages and lines ping-ponged across transactions.
func MakeScript(seed uint64, n int) Script {
	rng := engine.NewRNG(seed)
	sc := Script{Seed: seed}
	for i := 0; i < n; i++ {
		sc.Txns = append(sc.Txns, lines(rng, 5, 6))
	}
	return sc
}

// makeCrossScript builds n transactions over pages 1-8, roughly half of
// them global, writing lines of 2-4 pages (so of several journal shards).
func makeCrossScript(seed uint64, n int) Script {
	rng := engine.NewRNG(seed)
	sc := Script{Seed: seed}
	for i := 0; i < n; i++ {
		global := rng.Intn(2) == 0
		var addrs []uint64
		if !global {
			addrs = lines(rng, 8, 4)
		} else {
			for seen, pages := 0, 2+rng.Intn(3); bits.OnesCount(uint(seen)) < pages; {
				if page := 1 + rng.Intn(8); seen&(1<<page) == 0 {
					seen |= 1 << page
					for j := 0; j <= rng.Intn(2); j++ {
						addrs = append(addrs, addr(page, rng.Intn(64)))
					}
				}
			}
		}
		sc.Txns = append(sc.Txns, addrs)
		sc.Global = append(sc.Global, global)
	}
	return sc
}

// makeRelaxedScript builds n Relaxed transactions of 1-3 private lines, a
// Sync after roughly every sixth; with cross, roughly half are global,
// writing one line on each of 2-4 private pages from page 100 up.
func makeRelaxedScript(seed uint64, n int, cross bool) Script {
	rng := engine.NewRNG(seed)
	sc := Script{Seed: seed, Relaxed: true}
	line, page := 0, 100 // next private line (pages 1 up), next private page
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

// Config returns the small machine the sweep runs on.
func Config(b ssp.Backend) ssp.Config {
	return ssp.Config{Backend: b, Cores: 1, NVRAMMB: 32, DRAMMB: 2, MaxHeapPages: 512}
}

// spray stores three whole pages of the spray window before txn i: enough
// to overflow a 64 KiB LLC and a 16-frame DRAM buffer, so the buffer tier
// keeps absorbing, evicting and writing back. The values are never checked.
func spray(c *ssp.Core, i int) {
	for j := 0; j < 3*64; j++ {
		c.Store64(addr(sprayFirstPage+(i*3+j/64)%sprayPages, j%64), uint64(i*192+j+1))
	}
}

type write struct{ va, val uint64 }

// txn is one transaction of a run, as the checker sees it.
type txn struct {
	writes   []write
	ack      int  // 1-based position in acknowledgement order, 0 if never acknowledged
	inFlight bool // its core's commit had not returned at power-off
	relaxed  bool // committed by CommitRelaxed
	shard    int  // the journal shard its core commits to
}

func (t txn) writesAt(va uint64) bool {
	return slices.ContainsFunc(t.writes, func(w write) bool { return w.va == va })
}

// outcome is what one run guarantees: each transaction's acknowledgement or
// in-flight state, and the floor: acks 1..floor preceded a completed Sync.
type outcome struct {
	txns  []txn
	floor int
}

// run executes sc on m until done or power-off. Core c runs transactions
// c, c+cores, ... through one loop body: serially the cores take turns,
// concurrently each loop runs under Machine.Run's window scheduler.
func run(m *ssp.Machine, sc Script) outcome {
	cores, shards := m.Cores(), max(1, m.Config().Layout.JournalShards)
	out := outcome{txns: make([]txn, len(sc.Txns))}
	for i, vas := range sc.Txns {
		c, shift := i%cores, uint64(0)
		if sc.Concurrent {
			shift = uint64(c*coreStride) * ssp.PageBytes
		}
		out.txns[i] = txn{writes: make([]write, len(vas)), relaxed: sc.Relaxed, shard: c % shards}
		for j, va := range vas {
			out.txns[i].writes[j] = write{va + shift, uint64(i + 1)}
		}
	}
	m.Heap().EnsureMapped(nil, 1, sc.lastPage(cores))
	acks := 0
	// step runs txn i on c and reports whether power held through it.
	step := func(c *ssp.Core, i int) bool {
		if m.Mem().PoweredOff() {
			return false
		}
		if sc.Spray {
			spray(c, i)
		}
		if at(sc.Global, i) {
			c.BeginGlobal()
		} else {
			c.Begin()
		}
		t := &out.txns[i]
		for _, w := range t.writes {
			c.Store64(w.va, w.val)
		}
		if sc.Relaxed {
			c.CommitRelaxed()
		} else {
			c.Commit()
		}
		if m.Mem().PoweredOff() {
			t.inFlight = true
			return false
		}
		acks++
		t.ack = acks
		if at(sc.Sync, i) {
			if c.Sync(); !m.Mem().PoweredOff() {
				out.floor = acks
			}
		}
		return true
	}
	if sc.Concurrent {
		m.Run(func(c *ssp.Core) {
			for i := c.ID(); i < len(sc.Txns); i += cores {
				if !step(c, i) {
					return
				}
			}
		})
		return out
	}
	for i := range sc.Txns {
		if !step(m.Core(i%cores), i) {
			break
		}
	}
	return out
}

// check is the crash oracle for a run's transactions and sync floor.
func check(m *ssp.Machine, txns []txn, floor int) error {
	return coherent(m, func() error {
		c := m.Core(0)
		// 1. Presence: sync acks and relaxed ones behind the floor present,
		// unstarted ones absent; the rest read at a witness, the lowest address
		// no later-started one writes (Concurrent cores share no address).
		present := make([]bool, len(txns))
		for i, t := range txns {
			if !t.inFlight && !(t.relaxed && t.ack > floor) {
				present[i] = t.ack > 0
				continue
			}
			w := write{va: ^uint64(0)}
			for _, cand := range t.writes {
				if cand.va < w.va && !slices.ContainsFunc(txns[i+1:], func(l txn) bool {
					return (l.ack > 0 || l.inFlight) && l.writesAt(cand.va)
				}) {
					w = cand
				}
			}
			if w.va == ^uint64(0) {
				return fmt.Errorf("txn %d is uncertain and has no witness: later transactions rewrite every address it writes", i)
			}
			present[i] = c.Load64(w.va) == w.val
		}
		// 2. Legality: on each shard, lost relaxed acknowledgements are a
		// suffix of acknowledgement order.
		for i, lost := range txns {
			for j, t := range txns {
				if lost.relaxed && lost.ack > 0 && !present[i] && present[j] && t.ack > lost.ack && t.shard == lost.shard {
					return fmt.Errorf("txn %d survived on shard %d after txn %d was lost: epoch cut not a suffix", j, t.shard, i)
				}
			}
		}
		// 3. Image: present transactions' stores in order, over zeroes.
		var vas []uint64
		for _, t := range txns {
			for _, w := range t.writes {
				vas = append(vas, w.va)
			}
		}
		slices.Sort(vas)
		vas = slices.Compact(vas)
		want := make([]uint64, len(vas))
		for i, t := range txns {
			for _, w := range t.writes {
				if present[i] {
					k, _ := slices.BinarySearch(vas, w.va)
					want[k] = w.val
				}
			}
		}
		// 4. Compare, in ascending address order.
		for k, va := range vas {
			if got := c.Load64(va); got != want[k] {
				for i, t := range txns {
					if t.inFlight && t.writesAt(va) {
						return fmt.Errorf("boundary txn torn (applied=%v): %#x got %d want %d", present[i], va, got, want[k])
					}
				}
				return fmt.Errorf("addr %#x: got %d want %d", va, got, want[k])
			}
		}
		return nil
	})
}

// coherent wraps the oracle's post-recovery reads in the cache coherence
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

// RunScript runs sc and reports it as the synchronous contract reads it:
// committed holds the acknowledged stores, boundary those of the
// transaction in flight at power-off (nil if none; the first if several).
func RunScript(m *ssp.Machine, sc Script) (committed, boundary map[uint64]uint64) {
	committed = map[uint64]uint64{}
	for _, t := range run(m, sc).txns {
		into := committed
		if t.inFlight && boundary == nil {
			boundary = map[uint64]uint64{}
			into = boundary
		} else if t.ack == 0 {
			continue
		}
		for _, w := range t.writes {
			into[w.va] = w.val
		}
	}
	return committed, boundary
}

// Verify checks a recovered machine against RunScript's report with the
// one oracle: committed acknowledged, boundary in flight.
func Verify(m *ssp.Machine, committed, boundary map[uint64]uint64) error {
	out := outcome{txns: []txn{{ack: 1}, {inFlight: len(boundary) > 0}}}
	for i, vals := range []map[uint64]uint64{committed, boundary} {
		out.txns[i].writes = make([]write, 0, len(vals))
		for va, v := range vals {
			out.txns[i].writes = append(out.txns[i].writes, write{va, v})
		}
	}
	return check(m, out.txns, 0)
}

// Sweep trap-sweeps sc on cfg: a drained reference run counts the durable
// NVRAM writes and must check clean; then sc re-runs on a fresh machine
// with power failing after write k = 0..writes, recovers and is checked.
// Each failure is a line on log (nil: silent) naming class, backend, seed
// and trap ("ref" for the reference run).
func Sweep(cfg ssp.Config, sc Script, log io.Writer) (points, failures int) {
	fail := func(trap any, err error) {
		failures++
		if log != nil {
			fmt.Fprintf(log, "FAIL %s %v script seed %#x trap %v: %v\n", sc.Class, cfg.Backend, sc.Seed, trap, err)
		}
	}
	ref := ssp.MustNew(cfg)
	setup := ref.Stats().NVRAMWriteLines
	out := run(ref, sc)
	ref.Drain()
	writes := int64(ref.Stats().NVRAMWriteLines - setup)
	if err := check(ref, out.txns, len(sc.Txns)); err != nil { // drained: every ack durable
		fail("ref", err)
	}
	for k := int64(0); k <= writes; k++ {
		points++
		m := ssp.MustNew(cfg)
		m.Mem().SetWriteTrap(k)
		out := run(m, sc)
		m.Mem().SetWriteTrap(-1)
		if err := m.Recover(); err != nil {
			fail(k, fmt.Errorf("recovery: %w", err))
			continue
		}
		m.Heap().EnsureMapped(nil, 1, sc.lastPage(m.Cores()))
		if err := check(m, out.txns, out.floor); err != nil {
			fail(k, err)
		}
	}
	return points, failures
}

// Class is one row of the crash class table: a machine (Backend is set per
// sweep), a script generator, the script length and the seeds the in-tree
// sweep runs. Name is also the test that sweeps the class — the part
// before "/" follows TestTrapSweep, the rest names a subtest.
type Class struct {
	Name   string
	Config ssp.Config
	Script func(seed uint64, txns int) Script
	Txns   int
	Seeds  []uint64
}

// Classes is the crash class table (doc.go's "Crash oracle" says what each
// row covers). Every class runs on every backend against the one oracle.
var Classes = []Class{
	{"AllBackends", machine(1, 0, 0), MakeScript, 10, []uint64{0xC4A5, 0x1006E8, 0x1F492B}},
	{"JournalShards/2", machine(2, 2, 0), MakeScript, 10, []uint64{0x5A8B, 0xF9CCE}},
	{"JournalShards/3", machine(3, 3, 0), MakeScript, 10, []uint64{0x5AAA, 0xF9CED, 0xEA61}},
	{"CrossShard", machine(4, 4, 0), makeCrossScript, 10, []uint64{0x6C0B, 0xFAE4E, 0xEA62}},
	{"CrossShardCheckpoints", with(machine(4, 4, 0), func(c *ssp.Config) { c.JournalKB = 1 }),
		makeCrossScript, 30, []uint64{0xCC99, 0x100EDC, 0xCCEA}},
	{"CommitKnobs/local", machine(1, 0, 0), MakeScript, 10, []uint64{0xEA60}},
	{"CommitKnobs/epoch", machine(3, 3, 30000), MakeScript, 10, []uint64{0xEA63}},
	{"Buffered/plain", with(machine(1, 0, 0), buffered), mode(true, false), 10, []uint64{0xB0F1}},
	{"Buffered/epoch", with(machine(1, 0, 30000), buffered), mode(true, false), 10, []uint64{0xB0F3}},
	{"Relaxed/local", machine(1, 0, 30000), relaxed(false), 12, []uint64{0x3E1A}},
	{"Relaxed/short-epoch", machine(1, 0, 4000), relaxed(false), 12, []uint64{0x3E1B}},
	{"Relaxed/shards", machine(3, 3, 30000), relaxed(false), 12, []uint64{0x3E1C}},
	{"CrossRelaxed", machine(4, 4, 30000), relaxed(true), 12, []uint64{0x3E2A, 0xF806D}},
	{"Windowed", machine(4, 2, 50000), mode(false, true), 10, []uint64{0x3D0A, 0xF7F4D}},
}

// machine is Config with cores, journal shards and a durability epoch.
func machine(cores, shards, epoch int) ssp.Config {
	cfg := Config(ssp.SSP)
	cfg.Cores, cfg.JournalShards, cfg.DurabilityEpoch = cores, shards, epoch
	return cfg
}

func with(cfg ssp.Config, set func(*ssp.Config)) ssp.Config {
	set(&cfg)
	return cfg
}

func buffered(cfg *ssp.Config) { cfg.DRAMCacheFrames, cfg.L2KB, cfg.L3KB = 16, 32, 64 }

func mode(spray, concurrent bool) func(uint64, int) Script {
	return func(seed uint64, txns int) Script {
		sc := MakeScript(seed, txns)
		sc.Spray, sc.Concurrent = spray, concurrent
		return sc
	}
}

func relaxed(cross bool) func(uint64, int) Script {
	return func(seed uint64, txns int) Script { return makeRelaxedScript(seed, txns, cross) }
}
