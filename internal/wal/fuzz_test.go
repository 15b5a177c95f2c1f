package wal

import (
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
)

// FuzzWALScan scans mutated rings. The seed corpus is valid flushed rings
// written through Stream.Append and Flush; the fuzzer then changes their
// bytes and length (the ring's capacity). Scan must not panic, every record
// it returns must hold its checksum at its offset, back to back from the
// region start with non-decreasing TIDs, and it must stop where the
// whole-region reference parse stops: at the first invalid record.
//
//	go test -run '^$' -fuzz FuzzWALScan -fuzztime 10s ./internal/wal
func FuzzWALScan(f *testing.F) {
	const maxRing = 3 * scanWindow // rings that span scan windows
	cfg := memsim.DefaultConfig()
	cfg.DRAMBytes = 1 << 20
	cfg.NVRAMBytes = 1 << 20
	mem := memsim.New(cfg, &stats.Stats{})
	base := cfg.NVRAMBase

	for _, ring := range []int{256, scanWindow, maxRing} {
		rng := engine.NewRNG(uint64(ring))
		s := NewStream(mem, base, ring, stats.CatMetaJournal)
		for tid := uint32(1); s.Used()+encodedLen(MaxPayload) <= ring; tid += uint32(rng.Intn(2)) {
			s.Append(randomRecord(rng, tid, MaxPayload), 0)
		}
		s.Flush(0)
		raw := make([]byte, ring)
		mem.Peek(base, raw)
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		raw = raw[:min(len(raw), maxRing)]
		mem.Poke(base, raw)
		recs := Scan(mem, base, len(raw))
		off := 0
		var last uint32
		for i, rec := range recs {
			n := encodedLen(len(rec.Payload))
			if off+n > len(raw) {
				t.Fatalf("record %d (%d bytes at offset %d) runs past the %d-byte ring", i, n, off, len(raw))
			}
			if sum := binary.LittleEndian.Uint32(raw[off:]); sum != checksum(rec.TID, rec.Kind, rec.Payload) {
				t.Fatalf("record %d at offset %d fails its checksum", i, off)
			}
			if rec.TID < last {
				t.Fatalf("record %d regresses TID %d -> %d", i, last, rec.TID)
			}
			last, off = rec.TID, off+n
		}
		if want := scanWhole(mem, base, len(raw)); !reflect.DeepEqual(recs, want) {
			t.Fatalf("Scan returned %d records, the whole-region parse %d", len(recs), len(want))
		}
	})
}
