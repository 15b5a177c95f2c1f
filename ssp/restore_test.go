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
// under 1.12 MiB together (0.04–0.12 MiB measured), on every backend. A
// capacity-sized image (192 MiB) or a copy of every written page cannot hide
// in that.
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
		if got := after.TotalAlloc - before.TotalAlloc; got > 112*MiB/100 {
			t.Errorf("%v: Crash + Restore allocated %.2f MiB, budget 1.12 MiB", b, float64(got)/MiB)
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

// arrayMachine is the paper's Table 2 machine (192 MB of NVRAM) on backend b
// holding a 4 MiB pds.Array with one element of every data page written, so
// that its image holds at least 1 024 written frames.
func arrayMachine(b ssp.Backend) (ssp.Config, *ssp.Machine) {
	const elems, perPage, pagesPerTxn = 4 << 20 / 8, ssp.PageBytes / 8, 8
	cfg := ssp.Config{Backend: b, Cores: 1, NVRAMMB: 192, DRAMMB: 4, MaxHeapPages: 36 << 10}
	m := ssp.MustNew(cfg)
	c := m.Core(0)
	c.Begin()
	a := pds.CreateArray(c, m.Heap(), elems)
	m.SetRoot(c, 0, a.Head())
	c.Commit()
	for i := 0; i < elems; i += perPage * pagesPerTxn {
		c.Begin()
		for j := i; j < min(elems, i+perPage*pagesPerTxn); j += perPage {
			a.Set(c, j, uint64(j)+1)
		}
		c.Commit()
	}
	m.Drain()
	return cfg, m
}

// A power cycle hands NVRAM pages over by reference: Crash allocates at most
// 64 bytes per page its image holds, and Restore at most a quarter of the
// image's page bytes, on the Table 2 machine holding a 4 MiB array. Either
// one copying the pages, as both did, allocates at least the image's page
// bytes. Restore's own cost is recovery's: the logging designs' allocates a
// fortieth of the page bytes, SSP's a fifth, as it rebuilds a page's
// metadata, its slot-table entries and its journal records for each of the
// ~1 000 slots the array holds.
func TestCrashRestoreSharesPages(t *testing.T) {
	for _, b := range ssp.Backends() {
		cfg, m := arrayMachine(b)
		var before, crashed, restored runtime.MemStats
		runtime.ReadMemStats(&before)
		img := m.Crash()
		runtime.ReadMemStats(&crashed)
		m2, err := ssp.Restore(cfg, img)
		runtime.ReadMemStats(&restored)
		if err != nil {
			t.Fatalf("%v: %v", b, err)
		}
		pages := uint64(img.Pages())
		if pages < 1024 {
			t.Fatalf("%v: the image holds %d pages, want at least 1024", b, pages)
		}
		crash, restore := crashed.TotalAlloc-before.TotalAlloc, restored.TotalAlloc-crashed.TotalAlloc
		t.Logf("%v: %d pages; Crash allocated %d B (%.1f B/page), Restore %.1f KiB", b, pages, crash, float64(crash)/float64(pages), float64(restore)/1024)
		if crash > 64*pages {
			t.Errorf("%v: Crash allocated %d B for an image of %d pages, budget 64 B per page", b, crash, pages)
		}
		if restore > pages*ssp.PageBytes/4 {
			t.Errorf("%v: Restore allocated %.1f KiB for an image of %d pages, budget a quarter of its %d KiB", b, float64(restore)/1024, pages, pages*ssp.PageBytes>>10)
		}
		c2 := m2.Core(0)
		a := pds.OpenArray(m2.Heap(), m2.Root(c2, 0))
		for _, j := range []int{0, ssp.PageBytes / 8, a.Len(c2) - ssp.PageBytes/8} {
			if v := a.Get(c2, j); v != uint64(j)+1 {
				t.Fatalf("%v: element %d reads %d after restore, want %d", b, j, v, j+1)
			}
		}
	}
}
