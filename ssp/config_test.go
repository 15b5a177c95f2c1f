package ssp

import (
	"reflect"
	"strings"
	"testing"
)

// configRejects lists, for every non-bool Config field, at least one value
// Validate must reject, with the field name its error must carry.
var configRejects = []struct {
	name  string
	cfg   Config
	field string // must appear in the error text
}{
	{"backend out of range", Config{Backend: 9}, "Backend"},
	{"negative backend", Config{Backend: -1}, "Backend"},
	{"negative cores", Config{Cores: -1}, "Cores"},
	{"cores over nvram", Config{Cores: 1000}, "Cores"},
	{"negative channels", Config{Channels: -2}, "Channels"},
	{"channels over max", Config{Channels: MaxChannels + 1}, "Channels"},
	{"negative shards", Config{JournalShards: -1}, "JournalShards"},
	{"shards over max", Config{JournalShards: MaxJournalShards + 1}, "JournalShards"},
	{"negative nvram read", Config{NVRAMReadNS: -50}, "NVRAMReadNS"},
	{"negative nvram write", Config{NVRAMWriteNS: -0.5}, "NVRAMWriteNS"},
	{"negative nvram", Config{NVRAMMB: -1}, "NVRAMMB"},
	{"ssp spares over nvram", Config{Backend: SSP, NVRAMMB: 4}, "NVRAMMB"},
	{"ssp spares over nvram, one core", Config{NVRAMMB: 1}, "NVRAMMB"},
	{"tlb reach spares over nvram", Config{NVRAMMB: 8, TLBEntries: 4096}, "NVRAMMB"},
	{"cores' spares over nvram", Config{NVRAMMB: 8, Cores: 16}, "NVRAMMB"},
	{"stlb reach spares over nvram", Config{NVRAMMB: 32, STLBEntries: 1 << 16}, "NVRAMMB"},
	{"negative dram", Config{DRAMMB: -1}, "DRAMMB"},
	{"negative max heap pages", Config{MaxHeapPages: -1}, "MaxHeapPages"},
	{"heap over nvram", Config{MaxHeapPages: 1 << 24}, "MaxHeapPages"},
	{"negative journal", Config{JournalKB: -64}, "JournalKB"},
	{"journal over nvram", Config{JournalKB: 128 << 10}, "JournalKB"},
	{"negative tlb entries", Config{TLBEntries: -1}, "TLBEntries"},
	{"stlb over nvram", Config{STLBEntries: 1 << 22}, "STLBEntries"},
	{"l2 below min", Config{L2KB: 16}, "L2KB"},
	{"negative l2", Config{L2KB: -256}, "L2KB"},
	{"l3 below min", Config{L3KB: 32}, "L3KB"},
	{"negative ssp cache latency", Config{SSPCacheLatency: -27}, "SSPCacheLatency"},
	{"negative ssp resident", Config{SSPResident: -1}, "SSPResident"},
	{"subpage lines 2", Config{SubPageLines: 2}, "SubPageLines"},
	{"subpage lines 3", Config{SubPageLines: 3}, "SubPageLines"},
	{"subpage lines 8", Config{SubPageLines: 8}, "SubPageLines"},
	{"negative subpage lines", Config{SubPageLines: -4}, "SubPageLines"},
	{"negative wsb entries", Config{WSBEntries: -64}, "WSBEntries"},
	{"negative epoch", Config{DurabilityEpoch: -100}, "DurabilityEpoch"},
	{"negative time window", Config{TimeWindow: -4096}, "TimeWindow"},
	{"negative dram cache frames", Config{DRAMCacheFrames: -1}, "DRAMCacheFrames"},
	{"dram cache frames over dram", Config{DRAMMB: 2, DRAMCacheFrames: 513}, "DRAMCacheFrames"},
	{"negative redo engines", Config{RedoWriteBackEngines: -1}, "RedoWriteBackEngines"},
}

// TestConfigValidation drives New through every rejected configuration
// class and asserts the error names the offending field (so a misconfigured
// experiment fails loudly and legibly instead of panicking deep in machine
// construction or silently mis-simulating).
func TestConfigValidation(t *testing.T) {
	for _, tc := range configRejects {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.cfg.Validate(); err == nil {
				t.Fatalf("Validate accepted %+v", tc.cfg)
			} else if !strings.Contains(err.Error(), tc.field) {
				t.Fatalf("error %q does not name field %s", err, tc.field)
			}
			if m, err := New(tc.cfg); err == nil {
				t.Fatalf("New accepted %+v", tc.cfg)
			} else if m != nil {
				t.Fatal("New returned a machine alongside the error")
			}
			if _, err := Restore(tc.cfg, Image{}); err == nil {
				t.Fatalf("Restore accepted %+v", tc.cfg)
			}
		})
	}
}

// TestConfigValidationCoversEveryField fails when a non-bool Config field
// has no rejected value in configRejects: a field added without a range
// check in Validate, or without its row here.
func TestConfigValidationCoversEveryField(t *testing.T) {
	covered := map[string]bool{}
	for _, tc := range configRejects {
		covered[tc.field] = true
	}
	typ := reflect.TypeOf(Config{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Type.Kind() != reflect.Bool && !covered[f.Name] {
			t.Errorf("Config.%s has no row in configRejects", f.Name)
		}
	}
}

// TestConfigValidationAccepts pins the legal boundary values: zero selects
// every default, and the maxima themselves are in range.
func TestConfigValidationAccepts(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Channels: MaxChannels, JournalShards: MaxJournalShards},
		{Backend: RedoLog, Cores: 16},
		{STLBEntries: -1}, // disables the STLB
		{SubPageLines: 1},
		{SubPageLines: 4},
		{DurabilityEpoch: 1 << 20},
		{TimeWindow: 4096},
		{Backend: UndoLog, NVRAMMB: 2}, // no spare frames to reserve
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate rejected legal config %+v: %v", cfg, err)
		}
	}
	// The smallest machines each backend accepts build and commit.
	for _, cfg := range []Config{{Backend: UndoLog, NVRAMMB: 1}, {Backend: SSP, NVRAMMB: 6}} {
		m, err := New(cfg)
		if err != nil {
			t.Fatalf("New(%+v): %v", cfg, err)
		}
		c := m.Core(0)
		c.Begin()
		c.Store64(m.Heap().Alloc(c, 64), 1)
		c.Commit()
	}
}

func TestMustNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew did not panic on an invalid config")
		}
	}()
	MustNew(Config{SubPageLines: 3})
}
