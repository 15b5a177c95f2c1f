package ssp_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/crashsweep"
	"repro/ssp"
	"repro/ssp/pds"
)

// Crash and Restore cost what the run wrote, not the configured capacity: on
// the paper's Table 2 machine (192 MB of NVRAM) holding a 2 000-key B-tree,
// the power failure and the boot of a new machine from its image allocate
// under 8 MiB together, on every backend. A capacity-sized image (192 MiB)
// cannot hide in that.
func TestCrashRestoreFollowsTouchedState(t *testing.T) {
	const MiB = 1 << 20
	const keys = 2000
	for _, b := range ssp.Backends() {
		cfg := ssp.Config{Backend: b, Cores: 1, NVRAMMB: 192, DRAMMB: 4, MaxHeapPages: 36 << 10}
		m := ssp.MustNew(cfg)
		c := m.Core(0)
		c.Begin()
		bt := pds.CreateBTree(c, m.Heap())
		m.SetRoot(c, 0, bt.Head())
		c.Commit()
		for k := uint64(0); k < keys; k++ {
			c.Begin()
			bt.Insert(c, k*7919%keys, k)
			c.Commit()
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m2, err := ssp.Restore(cfg, m.Crash())
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 8*MiB {
			t.Errorf("%v: Crash + Restore allocated %.1f MiB, budget 8 MiB", b, float64(got)/MiB)
		} else {
			t.Logf("%v: Crash + Restore allocated %.2f MiB", b, float64(got)/MiB)
		}

		c2 := m2.Core(0)
		bt2 := pds.OpenBTree(m2.Heap(), m2.Root(c2, 0))
		if n := bt2.Len(c2); n != keys {
			t.Fatalf("%v: restored tree holds %d keys, want %d", b, n, keys)
		}
		for k := uint64(0); k < keys; k++ {
			if v, ok := bt2.Get(c2, k*7919%keys); !ok || v != k {
				t.Fatalf("%v: key %d reads (%d, %v) after restore, want %d", b, k*7919%keys, v, ok, k)
			}
		}
	}
}

// Restore parses an image under the layout its Config gives, so it must
// refuse an image formatted under another: the superblock records the
// backend and the layout fields, and the error names the first that differs.
func TestRestoreRejectsMismatchedConfig(t *testing.T) {
	cfg := crashsweep.Config(ssp.SSP)
	m := ssp.MustNew(cfg)
	crashsweep.RunScript(m, crashsweep.MakeScript(1000003, 12))
	img := m.Crash()
	for _, tc := range []struct {
		name  string
		set   func(*ssp.Config)
		field string // must appear in the error text
	}{
		{"TLBEntries", func(c *ssp.Config) { c.TLBEntries = 128 }, "SSPSlots"},
		{"Cores", func(c *ssp.Config) { c.Cores = 2 }, "Cores"},
		{"MaxHeapPages", func(c *ssp.Config) { c.MaxHeapPages = 1024 }, "MaxHeapPages"},
		{"STLBEntries", func(c *ssp.Config) { c.STLBEntries = 256 }, "SSPSlots"},
		{"JournalKB", func(c *ssp.Config) { c.JournalKB = 128 }, "JournalBytes"},
		{"Backend", func(c *ssp.Config) { c.Backend = ssp.UndoLog }, "Backend"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			other := cfg
			tc.set(&other)
			m2, err := ssp.Restore(other, img)
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("Restore under %+v returned %v, want an error naming %s", other, err, tc.field)
			}
			if m2 != nil {
				t.Fatal("Restore returned a machine alongside the error")
			}
		})
	}
	if _, err := ssp.Restore(cfg, img); err != nil {
		t.Fatalf("Restore under the image's own config: %v", err)
	}
}
