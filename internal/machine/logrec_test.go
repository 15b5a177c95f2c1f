package machine

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/txn"
	"repro/internal/wal"
)

// TestCorruptLogRecordIsAnError: a log record whose checksum is valid but
// whose payload is not a line record of the frame pool — too short, naming
// an address outside NVRAM, or naming a line of the metadata regions —
// makes Restore return an error on every backend, never panic and never
// write the named line.
func TestCorruptLogRecordIsAnError(t *testing.T) {
	for _, b := range allBackends() {
		cfg := testConfig(b, 1)
		layout := New(cfg).layout
		line := func(pa memsim.PAddr) []byte {
			p := make([]byte, txn.LineRecordBytes)
			binary.LittleEndian.PutUint64(p, uint64(pa))
			return p
		}
		payloads := map[string][]byte{
			"short":         {1, 2, 3, 4},
			"outside NVRAM": line(0xffffffffffc0),
			"page table":    line(layout.PageTableBase),
			"slot array":    line(layout.SSPSlotsBase),
			"own log":       line(layout.LogBase[0]),
		}
		for name, payload := range payloads {
			t.Run(fmt.Sprintf("%v/%s", b, name), func(t *testing.T) {
				m := New(cfg)
				// The data-record kinds of the logging baselines (1) and of
				// SSP's fall-back log (10); each backend skips the other's.
				log := wal.NewStream(m.Mem(), m.layout.LogBase[0], m.layout.Cfg.LogBytes, stats.CatUndoLog)
				at := log.Append(wal.Record{TID: 1, Kind: 1, Payload: payload}, 0)
				at = log.Append(wal.Record{TID: 1, Kind: 10, Payload: payload}, at)
				log.Flush(at)
				img := m.Crash()
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("Restore panicked: %v", r)
					}
				}()
				if _, err := Restore(cfg, img); err == nil {
					t.Fatal("Restore accepted a corrupt log record")
				}
			})
		}
	}
}

// TestCoreStatsWithinAggregate: a core's counter shard is part of the
// aggregate, so none of its fields may exceed the aggregate's. Commits on
// core 1 of a 2-core machine, including SSP fall-back commits (a one-page
// write-set buffer and two-page transactions), must not wrap a per-core
// counter below zero.
func TestCoreStatsWithinAggregate(t *testing.T) {
	for _, b := range allBackends() {
		t.Run(b.String(), func(t *testing.T) {
			cfg := testConfig(b, 2)
			cfg.SSP.WSBEntries = 1
			m := New(cfg)
			m.Heap().EnsureMapped(nil, 1, 4)
			for i := 0; i < 2; i++ {
				c := m.Core(i)
				for n := 0; n < 3; n++ {
					c.Begin()
					c.Store64(heapVA(1+i, 64*n), uint64(n+1))
					c.Store64(heapVA(3, 64*(8*i+n)), uint64(n+1))
					c.Commit()
				}
			}
			m.Drain()
			agg := reflect.ValueOf(*m.Stats())
			for i := 0; i < 2; i++ {
				core := reflect.ValueOf(m.CoreStats(i))
				for f := 0; f < agg.NumField(); f++ {
					a, c := agg.Field(f), core.Field(f)
					if a.Kind() != reflect.Array {
						a, c = reflect.ValueOf([1]uint64{a.Uint()}), reflect.ValueOf([1]uint64{c.Uint()})
					}
					for j := 0; j < a.Len(); j++ {
						if c.Index(j).Uint() > a.Index(j).Uint() {
							t.Errorf("core %d %s[%d] = %d exceeds the aggregate's %d",
								i, agg.Type().Field(f).Name, j, c.Index(j).Uint(), a.Index(j).Uint())
						}
					}
				}
			}
			if b == SSP && m.Stats().FallbackTxns == 0 {
				t.Error("no SSP fall-back commit ran")
			}
		})
	}
}
