package crashsweep

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/ssp"
)

// Recovery parses durable state, and media corruption is in scope: a corrupt
// image must make ssp.Restore return a machine or an error, never panic.
// Every written page of each backend's image after MakeScript(1000003, 12)
// and a drain gets seeded single-bit flips and random 8-byte overwrites, and
// so does every written page of an SSP image whose 1 KiB journal was
// checkpointed into the slot array. Each variant boots copy-on-write from
// the image, takes one Poke and is imaged again, so it costs one page copy.
// A corrupt page-table entry — one that is not a frame base in the pool, or
// that maps a frame twice — used to panic in the frame allocator's rebuild,
// and a slot line naming a frame outside the pool in the slot decode.
func TestRestoreOfCorruptImageNeverPanics(t *testing.T) {
	const flips, overwrites = 40, 15
	type image struct {
		name string
		cfg  ssp.Config
		txns int
	}
	var images []image
	for _, b := range ssp.Backends() {
		images = append(images, image{b.String(), Config(b), 12})
	}
	images = append(images, image{"SSP checkpointed", with(Config(ssp.SSP), func(c *ssp.Config) { c.JournalKB = 1 }), 60})
	for i, im := range images {
		cfg := im.cfg
		m := ssp.MustNew(cfg)
		RunScript(m, MakeScript(1000003, im.txns))
		m.Drain()
		img := m.Crash()
		mc := m.Config().Mem
		probe, err := memsim.NewFromImage(mc, &stats.Stats{}, img)
		if err != nil {
			t.Fatal(err)
		}
		if l, _ := slotArray(m); cfg.JournalKB != 0 && !probe.Written(l.SSPSlotsBase) {
			t.Fatalf("%s: the image holds no slot-array page", im.name)
		}
		var pages []memsim.PAddr
		for pa := mc.NVRAMBase; pa < mc.NVRAMBase+memsim.PAddr(mc.NVRAMBytes); pa += memsim.PageBytes {
			if probe.Written(pa) {
				pages = append(pages, pa)
			}
		}
		rng := engine.NewRNG(uint64(i) + 1)
		refused := 0
		for _, page := range pages {
			for v := 0; v < flips+overwrites; v++ {
				mem, err := memsim.NewFromImage(mc, &stats.Stats{}, img)
				if err != nil {
					t.Fatal(err)
				}
				var what string
				if v < flips {
					pa, bit := page+memsim.PAddr(rng.Intn(memsim.PageBytes)), rng.Intn(8)
					var x [1]byte
					mem.Peek(pa, x[:])
					x[0] ^= 1 << bit
					mem.Poke(pa, x[:])
					what = fmt.Sprintf("bit %d of %#x flipped", bit, pa)
				} else {
					pa, v := page+memsim.PAddr(rng.Intn(memsim.PageBytes/8)*8), rng.Uint64()
					var x [8]byte
					binary.LittleEndian.PutUint64(x[:], v)
					mem.Poke(pa, x[:])
					what = fmt.Sprintf("%#x overwritten with %#x", pa, v)
				}
				if restoreRefuses(t, cfg, mem.NVRAMImage(), fmt.Sprintf("%s, %s", im.name, what)) {
					refused++
				}
			}
		}
		t.Logf("%s: %d written pages, %d corrupt variants, %d refused", im.name, len(pages), len(pages)*(flips+overwrites), refused)
	}
}

// restoreRefuses restores img and reports whether Restore returned an error;
// a panic fails the test.
func restoreRefuses(t *testing.T, cfg ssp.Config, img ssp.Image, what string) (refused bool) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Errorf("%s: Restore panicked: %v", what, r)
		}
	}()
	_, err := ssp.Restore(cfg, img)
	return err != nil
}
