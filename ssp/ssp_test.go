package ssp

import (
	"testing"

	"repro/internal/memsim"
)

func TestConfigDefaultsApply(t *testing.T) {
	m := MustNew(Config{})
	if m.Cores() != 1 {
		t.Errorf("default cores = %d", m.Cores())
	}
	if m.FreqGHz() != 3.7 {
		t.Errorf("default frequency = %v", m.FreqGHz())
	}
	if m.Seconds(3_700_000_000) != 1.0 {
		t.Errorf("Seconds conversion wrong: %v", m.Seconds(3_700_000_000))
	}
}

func TestConfigOverridesApply(t *testing.T) {
	cfg := Config{
		Backend:         SSP,
		Cores:           2,
		NVRAMReadNS:     150,
		NVRAMWriteNS:    600,
		SSPCacheLatency: 90,
		SubPageLines:    4,
		WSBEntries:      8,
		NVRAMMB:         64,
		MaxHeapPages:    512,
	}
	m := MustNew(cfg)
	if m.Cores() != 2 {
		t.Errorf("cores = %d", m.Cores())
	}
	if got := m.ConfigUsed(); got.SSPCacheLatency != 90 || got.SubPageLines != 4 {
		t.Errorf("ConfigUsed lost overrides: %+v", got)
	}
	// Higher NVRAM latency must slow down commits.
	slow := txnCycles(m)
	fast := txnCycles(MustNew(Config{Backend: SSP, Cores: 2, NVRAMMB: 64, MaxHeapPages: 512, SubPageLines: 4}))
	if slow <= fast {
		t.Errorf("150/600ns machine (%d cycles) not slower than 50/200ns (%d)", slow, fast)
	}
}

func txnCycles(m *Machine) Cycles {
	c := m.Core(0)
	m.Heap().EnsureMapped(nil, 1, 1)
	start := c.Now()
	for i := 0; i < 20; i++ {
		c.Begin()
		c.Store64(HeapBase+PageBytes+uint64(i%8)*256, uint64(i))
		c.Commit()
	}
	return c.Now() - start
}

func TestRootsRoundTrip(t *testing.T) {
	m := MustNew(Config{Backend: UndoLog})
	c := m.Core(0)
	c.Begin()
	p := m.Heap().Alloc(c, 64)
	m.SetRoot(c, 5, p)
	c.Commit()
	if m.Root(c, 5) != p {
		t.Error("root lost")
	}
	if RootVA(0) == RootVA(1) {
		t.Error("root slots alias")
	}
}

func TestBackendsList(t *testing.T) {
	bs := Backends()
	if len(bs) != 3 {
		t.Fatalf("backends = %v", bs)
	}
	names := map[string]bool{}
	for _, b := range bs {
		names[b.String()] = true
	}
	for _, want := range []string{"SSP", "UNDO-LOG", "REDO-LOG"} {
		if !names[want] {
			t.Errorf("missing backend %s", want)
		}
	}
}

func TestRestoreRejectsUnformattedImage(t *testing.T) {
	cfg := Config{Backend: SSP, NVRAMMB: 32, MaxHeapPages: 128}
	blank := memsim.ImageFromBytes(make([]byte, 32<<20))
	if _, err := Restore(cfg, blank); err == nil {
		t.Error("Restore accepted a blank image")
	}
}
