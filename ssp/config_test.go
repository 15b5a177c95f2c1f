package ssp

import (
	"strings"
	"testing"
)

// TestConfigValidation drives New through every rejected configuration
// class and asserts the error names the offending field (so a misconfigured
// experiment fails loudly and legibly instead of indexing out of range or
// silently mis-simulating).
func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name  string
		cfg   Config
		field string // must appear in the error text
	}{
		{"negative cores", Config{Cores: -1}, "Cores"},
		{"negative channels", Config{Channels: -2}, "Channels"},
		{"channels over max", Config{Channels: MaxChannels + 1}, "Channels"},
		{"negative shards", Config{JournalShards: -1}, "JournalShards"},
		{"shards over max", Config{JournalShards: MaxJournalShards + 1}, "JournalShards"},
		{"negative nvram read", Config{NVRAMReadNS: -50}, "NVRAMReadNS"},
		{"negative nvram write", Config{NVRAMWriteNS: -0.5}, "NVRAMWriteNS"},
		{"negative dram", Config{DRAMNS: -15}, "DRAMNS"},
		{"subpage lines 2", Config{SubPageLines: 2}, "SubPageLines"},
		{"subpage lines 3", Config{SubPageLines: 3}, "SubPageLines"},
		{"subpage lines 8", Config{SubPageLines: 8}, "SubPageLines"},
		{"negative subpage lines", Config{SubPageLines: -4}, "SubPageLines"},
		{"negative epoch", Config{DurabilityEpoch: -100}, "DurabilityEpoch"},
		{"negative time window", Config{TimeWindow: -4096}, "TimeWindow"},
	}
	for _, tc := range cases {
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

// TestConfigValidationAccepts pins the legal boundary values: zero selects
// every default, and the maxima themselves are in range.
func TestConfigValidationAccepts(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Channels: MaxChannels, JournalShards: MaxJournalShards},
		{SubPageLines: 1},
		{SubPageLines: 4},
		{DurabilityEpoch: 1 << 20},
		{TimeWindow: 4096},
	} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("Validate rejected legal config %+v: %v", cfg, err)
		}
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
