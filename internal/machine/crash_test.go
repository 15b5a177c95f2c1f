package machine

import (
	"fmt"
	"testing"

	"repro/internal/engine"
)

// crashScript is a deterministic transaction sequence used by the trap
// sweep: txn i writes value i+1 to every address in its write set. Write
// sets deliberately mix repeated lines, multiple pages, and ping-ponged
// lines across transactions.
type crashScript struct {
	txns [][]uint64 // addresses per transaction
}

func makeCrashScript(seed uint64) crashScript {
	rng := engine.NewRNG(seed)
	var sc crashScript
	for i := 0; i < 12; i++ {
		nAddrs := 1 + rng.Intn(6)
		var addrs []uint64
		for j := 0; j < nAddrs; j++ {
			page := 1 + rng.Intn(4)
			line := rng.Intn(64)
			addrs = append(addrs, heapVA(page, line*64))
		}
		sc.txns = append(sc.txns, addrs)
	}
	return sc
}

// runScript executes the script until done or until power fails, returning
// the durable expectation state: committed[va] is the value each address
// must have if the boundary transaction did not land, boundary holds the
// in-flight transaction's writes (empty when power failed between
// transactions), and done is the number of commits that returned with
// power still on.
func runScript(m *Machine, sc crashScript) (committed map[uint64]uint64, boundary map[uint64]uint64, done int) {
	committed = map[uint64]uint64{}
	c := m.Core(0)
	m.Heap().EnsureMapped(nil, 1, 4)
	for i, addrs := range sc.txns {
		if m.Mem().PoweredOff() {
			break
		}
		val := uint64(i + 1)
		pending := map[uint64]uint64{}
		c.Begin()
		for _, va := range addrs {
			c.Store64(va, val)
			pending[va] = val
		}
		c.Commit()
		if m.Mem().PoweredOff() {
			// Power failed inside this transaction (or during its commit):
			// it is the boundary — all or nothing.
			boundary = pending
			return committed, boundary, done
		}
		for va, v := range pending {
			committed[va] = v
		}
		done++
	}
	return committed, nil, done
}

// TestCrashTrapSweep is the central failure-atomicity test: for every
// possible power-failure point in the NVRAM write stream, recovery must
// yield exactly the committed prefix plus, atomically, the boundary
// transaction or nothing of it.
func TestCrashTrapSweep(t *testing.T) {
	for _, b := range allBackends() {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			sc := makeCrashScript(0x5eed + uint64(b))

			// Reference run: count total NVRAM writes after setup.
			ref := New(testConfig(b, 1))
			setupWrites := ref.Stats().NVRAMWriteLines
			_, _, total := runScript(ref, sc)
			if total != len(sc.txns) {
				t.Fatalf("reference run incomplete: %d/%d", total, len(sc.txns))
			}
			ref.Drain()
			scriptWrites := int64(ref.Stats().NVRAMWriteLines - setupWrites)
			if scriptWrites < 20 {
				t.Fatalf("suspiciously few NVRAM writes: %d", scriptWrites)
			}

			for k := int64(0); k <= scriptWrites; k++ {
				m := New(testConfig(b, 1))
				m.Mem().SetWriteTrap(k)
				committed, boundary, _ := runScript(m, sc)
				m.Mem().SetWriteTrap(-1)
				if err := m.Recover(); err != nil {
					t.Fatalf("trap %d: recovery failed: %v", k, err)
				}
				// A trap during the initial page mapping loses (leaks) the
				// unmapped pages; remapping them yields zeroed frames,
				// which is consistent with nothing having committed there.
				m.Heap().EnsureMapped(nil, 1, 4)
				if err := verifyState(m, committed, boundary); err != nil {
					t.Fatalf("trap %d: %v", k, err)
				}
				// The machine must still work after recovery.
				c := m.Core(0)
				c.Begin()
				c.Store64(heapVA(4, 4032), 0xC0FFEE)
				c.Commit()
				if v := c.Load64(heapVA(4, 4032)); v != 0xC0FFEE {
					t.Fatalf("trap %d: post-recovery transaction broken", k)
				}
			}
		})
	}
}

// verifyState checks the all-or-nothing contract against the recovered
// durable state.
func verifyState(m *Machine, committed, boundary map[uint64]uint64) error {
	c := m.Core(0)
	read := func(va uint64) uint64 { return c.Load64(va) }

	if boundary == nil {
		for va, want := range committed {
			if got := read(va); got != want {
				return fmt.Errorf("addr %#x: got %d want %d", va, got, want)
			}
		}
		return nil
	}
	// Decide whether the boundary transaction landed by its first address,
	// then require full consistency with that decision.
	applied := false
	for va, v := range boundary {
		if read(va) == v {
			applied = true
		}
		break
	}
	expect := map[uint64]uint64{}
	for va, v := range committed {
		expect[va] = v
	}
	if applied {
		for va, v := range boundary {
			expect[va] = v
		}
	}
	for va, want := range expect {
		if got := read(va); got != want {
			return fmt.Errorf("boundary txn torn (applied=%v): addr %#x got %d want %d", applied, va, got, want)
		}
	}
	return nil
}

// TestCrashTrapSweepMultiPage stresses transactions spanning many pages
// (multi-record journal batches / multi-entry logs).
func TestCrashTrapSweepMultiPage(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, b := range allBackends() {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			var sc crashScript
			for i := 0; i < 6; i++ {
				var addrs []uint64
				for p := 1; p <= 4; p++ {
					addrs = append(addrs, heapVA(p, ((i*7+p*3)%64)*64))
					addrs = append(addrs, heapVA(p, ((i*11+p*5)%64)*64))
				}
				sc.txns = append(sc.txns, addrs)
			}

			ref := New(testConfig(b, 1))
			setupWrites := ref.Stats().NVRAMWriteLines
			runScript(ref, sc)
			ref.Drain()
			scriptWrites := int64(ref.Stats().NVRAMWriteLines - setupWrites)

			for k := int64(0); k <= scriptWrites; k += 1 {
				m := New(testConfig(b, 1))
				m.Mem().SetWriteTrap(k)
				committed, boundary, _ := runScript(m, sc)
				m.Mem().SetWriteTrap(-1)
				if err := m.Recover(); err != nil {
					t.Fatalf("trap %d: recovery failed: %v", k, err)
				}
				m.Heap().EnsureMapped(nil, 1, 4)
				if err := verifyState(m, committed, boundary); err != nil {
					t.Fatalf("trap %d: %v", k, err)
				}
			}
		})
	}
}

// TestCrashDuringRecovery: a second power failure while recovery itself is
// writing must still recover to a consistent state (recovery idempotence).
func TestCrashDuringRecovery(t *testing.T) {
	for _, b := range allBackends() {
		b := b
		t.Run(b.String(), func(t *testing.T) {
			sc := makeCrashScript(0xFACE + uint64(b))
			// Crash mid-script at an arbitrary point.
			m := New(testConfig(b, 1))
			m.Mem().SetWriteTrap(25)
			committed, boundary, _ := runScript(m, sc)
			m.Mem().SetWriteTrap(-1)

			// First recovery is interrupted after each possible write.
			for k := int64(0); k < 20; k++ {
				img := m.Mem().NVRAMImage()
				m2, err := Restore(testConfig(b, 1), img)
				_ = m2
				if err != nil {
					t.Fatalf("baseline restore failed: %v", err)
				}
				m3, err := build(testConfig(b, 1), &img)
				if err != nil {
					t.Fatalf("build from image: %v", err)
				}
				m3.pt.Rebuild()
				m3.Mem().SetWriteTrap(k)
				_ = m3.Recover() // may be cut short; errors not expected
				m3.Mem().SetWriteTrap(-1)
				if err := m3.Recover(); err != nil {
					t.Fatalf("second recovery failed: %v", err)
				}
				m3.Heap().EnsureMapped(nil, 1, 4)
				if err := verifyState(m3, committed, boundary); err != nil {
					t.Fatalf("double-crash trap %d: %v", k, err)
				}
			}
		})
	}
}
