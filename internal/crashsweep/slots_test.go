package crashsweep

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/ssp"
)

// eagerSlotLine is the reference model of a slot line NVRAM never held: the
// line the eager format wrote into slot sid of a fresh machine — free (vpn
// and frame 0 invalid), spare frame sid, version 0, nothing committed —
// in the slot-line layout of internal/core/meta.go.
func eagerSlotLine(sid int) [ssp.LineBytes]byte {
	var line [ssp.LineBytes]byte
	binary.LittleEndian.PutUint32(line[0:], ^uint32(0))
	binary.LittleEndian.PutUint32(line[4:], ^uint32(0))
	binary.LittleEndian.PutUint32(line[8:], uint32(sid))
	return line
}

// slotArray returns m's layout and SSP cache size.
func slotArray(m *ssp.Machine) (vm.Layout, int) {
	mc := m.Config()
	return vm.NewLayout(mc.Mem, mc.Layout), mc.SSP.Entries
}

// eagerFormatted returns img with eagerSlotLine in every slot line it does
// not hold, and how many lines that was.
func eagerFormatted(t *testing.T, m *ssp.Machine, img ssp.Image) (ssp.Image, int) {
	t.Helper()
	l, entries := slotArray(m)
	mem, err := memsim.NewFromImage(m.Config().Mem, &stats.Stats{}, img)
	if err != nil {
		t.Fatal(err)
	}
	filled := 0
	var line [ssp.LineBytes]byte
	for sid := 0; sid < entries; sid++ {
		pa := l.SSPSlotsBase + memsim.PAddr(sid*ssp.LineBytes)
		mem.Peek(pa, line[:])
		if line == [ssp.LineBytes]byte{} {
			eager := eagerSlotLine(sid)
			mem.Poke(pa, eager[:])
			filled++
		}
	}
	return mem.NVRAMImage(), filled
}

// slotDump restores cfg's machine from img and describes its slot array,
// free-slot hand-out order and frame allocator.
func slotDump(t *testing.T, cfg ssp.Config, img ssp.Image) string {
	t.Helper()
	m, err := ssp.Restore(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	s := m.Backend().(*core.SSP)
	if msg := s.DebugCheckFrames(); msg != "" {
		t.Fatal(msg)
	}
	return s.DebugSlotDump()
}

// A never-written slot line means what the eager format wrote there: an
// image recovers to the same slot states, free-slot hand-out order and
// frame-allocator free set as the same image with the eager format's line
// in every slot line it does not hold. Checked on a fresh machine's image
// (which holds no slot-array page at all) and on the image of every class's
// SSP reference run.
func TestSlotArrayMatchesEagerFormat(t *testing.T) {
	compare := func(name string, cfg ssp.Config, m *ssp.Machine) {
		img := m.Crash()
		eager, filled := eagerFormatted(t, m, img)
		if filled == 0 {
			t.Fatalf("%s: every slot line was written; the comparison would prove nothing", name)
		}
		lazy, ref := slotDump(t, cfg, img), slotDump(t, cfg, eager)
		if lazy != ref {
			a, b := strings.Split(lazy, "\n"), strings.Split(ref, "\n")
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: recovery differs from the eagerly formatted image's\n got %s\nwant %s", name, a[i], b[i])
				}
			}
		}
	}

	cfg := Config(ssp.SSP)
	fresh := ssp.MustNew(cfg)
	l, entries := slotArray(fresh)
	for sid := 0; sid < entries; sid += ssp.PageBytes / ssp.LineBytes {
		if fresh.Mem().Written(l.SSPSlotsBase + memsim.PAddr(sid*ssp.LineBytes)) {
			t.Fatalf("a fresh machine wrote the page of slots %d..", sid)
		}
	}
	compare("fresh", cfg, fresh)

	for _, cl := range Classes {
		cfg := cl.Config
		cfg.Backend = ssp.SSP
		for _, seed := range cl.Seeds {
			m := ssp.MustNew(cfg)
			run(m, cl.Script(seed, cl.Txns))
			m.Drain()
			compare(cl.Name, cfg, m)
		}
	}
}
