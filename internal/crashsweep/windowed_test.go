package crashsweep

import (
	"os"
	"testing"

	"repro/ssp"
)

// TestTrapSweepWindowed is the windowed concurrent crash class: the script
// runs with one goroutine per core on a 4-core machine under the
// deterministic window scheduler, with journal sharding and a durability
// epoch composed (WindowedConfig), and the trap sweep injects a power
// failure after every durable NVRAM write. Because TimeWindow > 0 makes the
// write stream reproducible, each trap point names the same cut in every
// run — the sweep proves window barriers and epoch hardening cannot move a
// durability point past a synchronous commit's acknowledgement.
func TestTrapSweepWindowed(t *testing.T) {
	scripts, txns := 2, 10
	if testing.Short() {
		scripts, txns = 1, 6
	}
	total := 0
	for s := 0; s < scripts; s++ {
		seed := 0x3D0A + uint64(s)*1000003
		cfg := WindowedConfig(4)
		points, bad := SweepWindowedScript(cfg, MakeScript(seed, txns), false, os.Stderr)
		if bad != 0 {
			t.Fatalf("script %d (seed %#x): %d of %d trap points violated the all-or-nothing contract", s, seed, bad, points)
		}
		total += points
	}
	if total == 0 {
		t.Fatal("windowed sweep checked no trap points")
	}
	t.Logf("%d trap points checked", total)
}

// TestWindowedRunDeterministic double-checks the windowed sweep's
// foundation directly: two reference runs of the same script on the same
// config produce the same durable NVRAM write count (the trap-point space)
// and the same final stats.
func TestWindowedRunDeterministic(t *testing.T) {
	cfg := WindowedConfig(4)
	sc := MakeScript(0xD37, 12)
	run := func() (uint64, ssp.Stats) {
		m := ssp.MustNew(cfg)
		runWindowed(m, sc)
		m.Drain()
		return m.Stats().NVRAMWriteLines, *m.Stats()
	}
	w1, st1 := run()
	w2, st2 := run()
	if w1 != w2 {
		t.Fatalf("durable write streams diverged: %d vs %d lines", w1, w2)
	}
	if st1 != st2 {
		t.Fatalf("stats diverged between same-seed windowed runs:\n%+v\nvs\n%+v", st1, st2)
	}
}
