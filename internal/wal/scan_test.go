package wal

import (
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
)

// scanWhole is the reference the windowed Scan is compared against: the
// whole region peeked into one buffer, then parsed.
func scanWhole(mem *memsim.Memory, base memsim.PAddr, capacity int) []Record {
	raw := make([]byte, capacity)
	mem.Peek(base, raw)
	var out []Record
	off := 0
	var last uint32
	for off+HeaderBytes <= capacity {
		sum := binary.LittleEndian.Uint32(raw[off:])
		tid := binary.LittleEndian.Uint32(raw[off+4:])
		kind := raw[off+8]
		plen := int(raw[off+9])
		if plen > MaxPayload || off+encodedLen(plen) > capacity {
			break
		}
		payload := raw[off+HeaderBytes : off+HeaderBytes+plen]
		if checksum(tid, kind, payload) != sum || tid < last {
			break
		}
		last = tid
		out = append(out, Record{TID: tid, Kind: kind, Payload: append(make([]byte, 0, plen), payload...)})
		off += encodedLen(plen)
	}
	return out
}

// encode frames rec as Append does.
func encode(rec Record) []byte {
	buf := make([]byte, encodedLen(len(rec.Payload)))
	binary.LittleEndian.PutUint32(buf[0:], checksum(rec.TID, rec.Kind, rec.Payload))
	binary.LittleEndian.PutUint32(buf[4:], rec.TID)
	buf[8] = rec.Kind
	buf[9] = byte(len(rec.Payload))
	copy(buf[HeaderBytes:], rec.Payload)
	return buf
}

func randomRecord(rng *engine.RNG, tid uint32, maxPayload int) Record {
	p := make([]byte, rng.Intn(maxPayload+1))
	for i := range p {
		p[i] = byte(rng.Intn(256))
	}
	return Record{TID: tid, Kind: uint8(1 + rng.Intn(5)), Payload: p}
}

// The windowed Scan returns what the whole-region parse returns, on rings
// that span several scan windows: filled to the brim (the last record ends
// within a header of the region's end), with a torn tail at a random byte,
// and with a shorter new generation written over an old one.
func TestScanMatchesWholeRegionParse(t *testing.T) {
	const capacity = 3*scanWindow + 200
	for seed := uint64(1); seed <= 40; seed++ {
		rng := engine.NewRNG(seed)
		cfg := memsim.DefaultConfig()
		cfg.DRAMBytes = 1 << 20
		cfg.NVRAMBytes = 1 << 20
		mem := memsim.New(cfg, &stats.Stats{})
		// The base is line-aligned but not page-aligned, so scan windows and
		// memory pages do not line up.
		base := cfg.NVRAMBase + memsim.PAddr(64*(1+rng.Intn(63)))
		check := func(what string, atLeast int) {
			t.Helper()
			got, want := Scan(mem, base, capacity), scanWhole(mem, base, capacity)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s: Scan returned %d records, the whole-region parse %d", seed, what, len(got), len(want))
			}
			if len(want) < atLeast {
				t.Fatalf("seed %d, %s: only %d records parsed, expected at least %d", seed, what, len(want), atLeast)
			}
		}

		s := NewStream(mem, base, capacity, stats.CatMetaJournal)
		tid, n := uint32(1), 0
		for s.Used()+encodedLen(MaxPayload) <= capacity {
			s.Append(randomRecord(rng, tid, MaxPayload), 0)
			tid += uint32(rng.Intn(2))
			n++
		}
		// Top the ring up with the largest record that still fits.
		if room := capacity - s.Used() - HeaderBytes; room >= 0 {
			s.Append(randomRecord(rng, tid, room&^7), 0)
			n++
		}
		s.Flush(0)
		check("full ring", n)

		tear := rng.Intn(s.Used())
		garbage := make([]byte, 1+rng.Intn(64))
		for i := range garbage {
			garbage[i] = byte(rng.Intn(256))
		}
		mem.Poke(base+memsim.PAddr(tear), garbage[:min(len(garbage), capacity-tear)])
		check("torn tail", 0)

		s.Reset()
		s.SetTIDFloor(tid)
		fresh := 1 + rng.Intn(20)
		for i := 0; i < fresh; i++ {
			tid++
			s.Append(randomRecord(rng, tid, MaxPayload), 0)
		}
		s.Flush(0)
		check("new generation over old bytes", fresh)
	}
}

// Records placed by hand against the end of the region: one that ends exactly
// at the last byte is returned; a valid header whose payload would run past
// the end stops the scan without reading past the region (the bytes beyond it
// are another ring's).
func TestScanAtRegionEnd(t *testing.T) {
	const capacity = 2 * scanWindow
	cfg := memsim.DefaultConfig()
	cfg.DRAMBytes = 1 << 20
	cfg.NVRAMBytes = 1 << 20
	mem := memsim.New(cfg, &stats.Stats{})
	base := cfg.NVRAMBase + scanWindow/2

	// Fixed-size records tile the region up to its last 64 bytes.
	filler := Record{TID: 1, Kind: 1, Payload: make([]byte, 48)}
	off, n := 0, 0
	for ; off+64 <= capacity-64; off += 64 {
		mem.Poke(base+memsim.PAddr(off), encode(filler))
		n++
	}
	last := Record{TID: 2, Kind: 3, Payload: []byte("ends exactly at the last byte of the region....!")}
	if encodedLen(len(last.Payload)) != 64 {
		t.Fatalf("test record encodes to %d bytes, want 64", encodedLen(len(last.Payload)))
	}
	mem.Poke(base+memsim.PAddr(off), encode(last))
	got := Scan(mem, base, capacity)
	if len(got) != n+1 || !reflect.DeepEqual(got[n], last) {
		t.Fatalf("record ending at the region's last byte: scanned %d records, want %d", len(got), n+1)
	}

	// The same bytes, one record longer than the space left: the neighbour
	// region holds the overhang, and the scan must not return it.
	long := Record{TID: 2, Kind: 3, Payload: make([]byte, 56)}
	mem.Poke(base+memsim.PAddr(off), encode(long))
	got = Scan(mem, base, capacity)
	if want := scanWhole(mem, base, capacity); len(got) != n || !reflect.DeepEqual(got, want) {
		t.Fatalf("record overhanging the region's end: scanned %d records, want %d", len(got), n)
	}
}

// Scan reads a ring once: on a full ring of three and a bit scan windows it
// peeks each stretch of the region once, four windows (a refill starts at the
// record that crosses the window's end, so starts lie more than a window
// less one record apart), where a checksum pass followed by a copy pass
// peeks eight.
func TestScanReadsEachWindowOnce(t *testing.T) {
	const capacity = 3*scanWindow + 200
	cfg := memsim.DefaultConfig()
	cfg.DRAMBytes = 1 << 20
	cfg.NVRAMBytes = 1 << 20
	mem := memsim.New(cfg, &stats.Stats{})
	base := cfg.NVRAMBase
	rng := engine.NewRNG(3)
	s := NewStream(mem, base, capacity, stats.CatMetaJournal)
	for tid := uint32(1); s.Used()+encodedLen(MaxPayload) <= capacity; tid++ {
		s.Append(randomRecord(rng, tid, MaxPayload), 0)
	}
	s.Flush(0)

	reads := 0
	windowRead = func() { reads++ }
	defer func() { windowRead = nil }()
	recs := Scan(mem, base, capacity)
	if want := scanWhole(mem, base, capacity); !reflect.DeepEqual(recs, want) {
		t.Fatalf("Scan returned %d records, the whole-region parse %d", len(recs), len(want))
	}
	if bound := (capacity + scanWindow - encodedLen(MaxPayload) - 1) / (scanWindow - encodedLen(MaxPayload)); reads > bound {
		t.Errorf("Scan of a %d-byte ring read %d windows, want at most %d", capacity, reads, bound)
	}
	t.Logf("%d records, %d windows read", len(recs), reads)
}
