package wal

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
)

func newStream(t *testing.T) (*Stream, *memsim.Memory, *stats.Stats) {
	t.Helper()
	st := &stats.Stats{}
	cfg := memsim.DefaultConfig()
	cfg.DRAMBytes = 1 << 20
	cfg.NVRAMBytes = 1 << 20
	mem := memsim.New(cfg, st)
	base := cfg.NVRAMBase
	return NewStream(mem, base, 8<<10, stats.CatUndoLog), mem, st
}

func TestAppendScanRoundTrip(t *testing.T) {
	s, mem, _ := newStream(t)
	recs := []Record{
		{TID: 1, Kind: 2, Payload: []byte("hello")},
		{TID: 1, Kind: 3, Payload: nil},
		{TID: 2, Kind: 2, Payload: bytes.Repeat([]byte{0xAB}, 100)},
	}
	for _, r := range recs {
		s.Append(r, 0)
	}
	s.Flush(0)
	got := Scan(mem, mem.Config().NVRAMBase, 8<<10)
	if len(got) != len(recs) {
		t.Fatalf("scan returned %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].TID != recs[i].TID || got[i].Kind != recs[i].Kind || !bytes.Equal(got[i].Payload, recs[i].Payload) {
			t.Errorf("record %d mismatch: %+v vs %+v", i, got[i], recs[i])
		}
	}
	if maxTID(got) != 2 {
		t.Errorf("MaxTID = %d", maxTID(got))
	}
}

func TestUnflushedTailInvisible(t *testing.T) {
	s, mem, _ := newStream(t)
	s.Append(Record{TID: 1, Kind: 1, Payload: []byte("durable")}, 0)
	s.Flush(0)
	s.Append(Record{TID: 2, Kind: 1, Payload: []byte("staged")}, 0)
	// No flush: the second record must not be visible (power failure would
	// lose the controller buffer).
	got := Scan(mem, mem.Config().NVRAMBase, 8<<10)
	if len(got) != 1 || got[0].TID != 1 {
		t.Fatalf("staged record leaked: %d records", len(got))
	}
}

func TestResetGenerationTIDRegression(t *testing.T) {
	s, mem, _ := newStream(t)
	// Generation 1: three records.
	for tid := uint32(1); tid <= 3; tid++ {
		s.Append(Record{TID: tid, Kind: 1, Payload: bytes.Repeat([]byte{byte(tid)}, 40)}, 0)
	}
	s.Flush(0)
	// Truncate, then write one newer record over the old bytes.
	s.Reset()
	s.SetTIDFloor(3)
	s.Append(Record{TID: 4, Kind: 1, Payload: []byte("new")}, 0)
	s.Flush(0)
	got := Scan(mem, mem.Config().NVRAMBase, 8<<10)
	if len(got) != 1 || got[0].TID != 4 {
		t.Fatalf("scan after truncation: got %d records, first TID %d", len(got), got[0].TID)
	}
}

func TestScanStopsAtGarbage(t *testing.T) {
	s, mem, _ := newStream(t)
	s.Append(Record{TID: 5, Kind: 1, Payload: []byte("ok")}, 0)
	s.Flush(0)
	// Corrupt bytes after the record.
	mem.Poke(mem.Config().NVRAMBase+64, bytes.Repeat([]byte{0xFF}, 64))
	got := Scan(mem, mem.Config().NVRAMBase, 8<<10)
	if len(got) != 1 {
		t.Fatalf("scan did not stop at garbage: %d records", len(got))
	}
}

func TestEmptyRegionScansEmpty(t *testing.T) {
	_, mem, _ := newStream(t)
	if got := Scan(mem, mem.Config().NVRAMBase, 8<<10); len(got) != 0 {
		t.Fatalf("zeroed region produced %d records", len(got))
	}
}

func TestTIDMonotonicityEnforced(t *testing.T) {
	s, _, _ := newStream(t)
	s.Append(Record{TID: 10, Kind: 1}, 0)
	defer func() {
		if recover() == nil {
			t.Error("TID regression should panic")
		}
	}()
	s.Append(Record{TID: 9, Kind: 1}, 0)
}

func TestOverflowPanics(t *testing.T) {
	s, _, _ := newStream(t)
	defer func() {
		if recover() == nil {
			t.Error("region overflow should panic")
		}
	}()
	for i := 0; i < 10000; i++ {
		s.Append(Record{TID: uint32(i + 1), Kind: 1, Payload: bytes.Repeat([]byte{1}, 64)}, 0)
	}
}

func TestDurableMarks(t *testing.T) {
	s, _, _ := newStream(t)
	if !s.Durable(s.MarkHere()) {
		t.Error("mark over an empty stream should be durable")
	}
	s.Append(Record{TID: 1, Kind: 1, Payload: []byte("x")}, 0)
	m1 := s.MarkHere()
	if s.Durable(m1) {
		t.Error("mark past staged bytes reported durable")
	}
	s.Flush(0)
	if !s.Durable(m1) {
		t.Error("mark not durable after flush")
	}
	// Reset (checkpoint) satisfies all previous marks.
	s.Append(Record{TID: 2, Kind: 1, Payload: []byte("y")}, 0)
	m2 := s.MarkHere()
	s.Reset()
	if !s.Durable(m2) {
		t.Error("mark from previous generation not satisfied by Reset")
	}
}

func TestByteAccountingMatchesWrites(t *testing.T) {
	s, _, st := newStream(t)
	for tid := uint32(1); tid <= 20; tid++ {
		s.Append(Record{TID: tid, Kind: 1, Payload: bytes.Repeat([]byte{1}, 24)}, 0)
		s.Flush(0)
	}
	if st.NVRAMWriteBytes[stats.CatUndoLog] == 0 {
		t.Fatal("no bytes accounted")
	}
	if st.NVRAMWriteLines == 0 {
		t.Fatal("no line writes accounted")
	}
}

// multiStream builds n streams over disjoint regions of one memory, plus
// the base addresses for scanShards.
func multiStream(t *testing.T, n int) ([]*Stream, []memsim.PAddr, *memsim.Memory) {
	t.Helper()
	st := &stats.Stats{}
	cfg := memsim.DefaultConfig()
	cfg.DRAMBytes = 1 << 20
	cfg.NVRAMBytes = 1 << 20
	mem := memsim.New(cfg, st)
	var streams []*Stream
	var bases []memsim.PAddr
	for i := 0; i < n; i++ {
		base := cfg.NVRAMBase + memsim.PAddr(i*(8<<10))
		bases = append(bases, base)
		streams = append(streams, NewStream(mem, base, 8<<10, stats.CatMetaJournal))
	}
	return streams, bases, mem
}

func TestMergeOrdersAcrossShards(t *testing.T) {
	streams, bases, mem := multiStream(t, 3)
	// Interleave TIDs across shards the way a global allocator would:
	// shard = tid % 3, with TID 5 a three-record batch on shard 2.
	for tid := uint32(1); tid <= 9; tid++ {
		s := streams[tid%3]
		s.Append(Record{TID: tid, Kind: 1, Payload: []byte{byte(tid)}}, 0)
		if tid == 5 {
			s.Append(Record{TID: tid, Kind: 1, Payload: []byte{0x50}}, 0)
			s.Append(Record{TID: tid, Kind: 2, Payload: []byte{0x51}}, 0)
		}
	}
	for _, s := range streams {
		s.Flush(0)
	}
	merged := mergeRecords(scanShards(mem, bases, 8<<10))
	if len(merged) != 11 {
		t.Fatalf("merged %d records, want 11", len(merged))
	}
	var last uint32
	for i, r := range merged {
		if r.TID < last {
			t.Fatalf("record %d: TID %d after %d", i, r.TID, last)
		}
		last = r.TID
	}
	// The TID-5 batch must come out contiguous and in shard order.
	var batch []Record
	for _, r := range merged {
		if r.TID == 5 {
			batch = append(batch, r)
		}
	}
	if len(batch) != 3 || batch[0].Payload[0] != 5 || batch[1].Payload[0] != 0x50 || batch[2].Payload[0] != 0x51 {
		t.Fatalf("TID-5 batch not contiguous/in order: %+v", batch)
	}
}

func TestMergeWithInterleavedTornTails(t *testing.T) {
	streams, bases, mem := multiStream(t, 2)
	// Shard 0: durable TIDs 1, 4; then a staged (never flushed) TID 6.
	streams[0].Append(Record{TID: 1, Kind: 1, Payload: []byte("a")}, 0)
	streams[0].Append(Record{TID: 4, Kind: 1, Payload: []byte("b")}, 0)
	streams[0].Flush(0)
	streams[0].Append(Record{TID: 6, Kind: 1, Payload: []byte("lost")}, 0)
	// Shard 1: durable TIDs 2, 3; then a torn TID 5 (corrupted in place).
	streams[1].Append(Record{TID: 2, Kind: 1, Payload: []byte("c")}, 0)
	streams[1].Append(Record{TID: 3, Kind: 1, Payload: []byte("d")}, 0)
	streams[1].Flush(0)
	mark := streams[1].Used()
	streams[1].Append(Record{TID: 5, Kind: 1, Payload: []byte("torn")}, 0)
	streams[1].Flush(0)
	mem.Poke(bases[1]+memsim.PAddr(mark)+4, []byte{0xFF, 0xFF}) // corrupt TID field

	merged := mergeRecords(scanShards(mem, bases, 8<<10))
	want := []uint32{1, 2, 3, 4}
	if len(merged) != len(want) {
		t.Fatalf("merged %d records, want %d (%+v)", len(merged), len(want), merged)
	}
	for i, r := range merged {
		if r.TID != want[i] {
			t.Errorf("merged[%d].TID = %d, want %d", i, r.TID, want[i])
		}
	}
}

// TestMergeTornPrepareKeepsOtherShards is the cross-shard recovery hazard
// of the distributed-commit protocol at the wal layer: shard 0 ends in a
// torn prepare batch of a global transaction (TID 5) while shard 1 holds a
// complete, unrelated single-shard batch with a HIGHER TID (6). Per-shard
// scans are independent — the tear truncates only shard 0's stream — so the
// merge must still deliver shard 1's batch intact, in TID order. (Whether
// the surviving prepare records of TID 5 apply is decided above wal, by the
// coordinator-end filter in internal/core.)
func TestMergeTornPrepareKeepsOtherShards(t *testing.T) {
	const kindPrepare, kindUpdateEnd = 6, 5
	streams, bases, mem := multiStream(t, 2)
	// Shard 0: a durable local batch (TID 2), then a global's prepare batch
	// (TID 5) whose second record tears.
	streams[0].Append(Record{TID: 2, Kind: kindUpdateEnd, Payload: []byte("local-a")}, 0)
	streams[0].Append(Record{TID: 5, Kind: kindPrepare, Payload: []byte("prep-0")}, 0)
	streams[0].Flush(0)
	mark := streams[0].Used()
	streams[0].Append(Record{TID: 5, Kind: kindPrepare, Payload: []byte("prep-1")}, 0)
	streams[0].Flush(0)
	mem.Poke(bases[0]+memsim.PAddr(mark)+4, []byte{0xFF, 0xFF}) // corrupt TID field

	// Shard 1: an unrelated complete single-shard batch with a higher TID.
	streams[1].Append(Record{TID: 6, Kind: kindUpdateEnd, Payload: []byte("local-b")}, 0)
	streams[1].Flush(0)

	shards := scanShards(mem, bases, 8<<10)
	if n := len(shards[0]); n != 2 {
		t.Fatalf("shard 0 scanned %d records, want 2 (tear truncates only its own tail)", n)
	}
	if n := len(shards[1]); n != 1 {
		t.Fatalf("shard 1 scanned %d records, want 1", n)
	}
	merged := mergeRecords(shards)
	want := []uint32{2, 5, 6}
	if len(merged) != len(want) {
		t.Fatalf("merged %d records, want %d", len(merged), len(want))
	}
	for i, r := range merged {
		if r.TID != want[i] {
			t.Errorf("merged[%d].TID = %d, want %d", i, r.TID, want[i])
		}
	}
	if got := merged[2]; got.Kind != kindUpdateEnd || string(got.Payload) != "local-b" {
		t.Errorf("higher-TID single-shard batch corrupted by the torn prepare: %+v", got)
	}
}

func TestSetTIDFloorAcrossShards(t *testing.T) {
	streams, bases, mem := multiStream(t, 2)
	// Generation 1: shard 0 carries TIDs 1..4, shard 1 carries 5..8.
	for tid := uint32(1); tid <= 4; tid++ {
		streams[0].Append(Record{TID: tid, Kind: 1, Payload: []byte{byte(tid)}}, 0)
	}
	for tid := uint32(5); tid <= 8; tid++ {
		streams[1].Append(Record{TID: tid, Kind: 1, Payload: []byte{byte(tid)}}, 0)
	}
	for _, s := range streams {
		s.Flush(0)
	}
	// Recovery: every shard resets and takes the global max TID as floor,
	// so post-recovery records sort after every durable one — on every
	// shard, not just the one that held the max.
	high := maxTID(mergeRecords(scanShards(mem, bases, 8<<10)))
	if high != 8 {
		t.Fatalf("max TID = %d", high)
	}
	for _, s := range streams {
		s.Reset()
		s.SetTIDFloor(high)
	}
	defer func() {
		if recover() == nil {
			t.Error("append below the cross-shard floor should panic")
		}
	}()
	streams[0].Append(Record{TID: 3, Kind: 1}, 0) // stale TID on the other shard
}

func TestMergeEmptyAndSingleShard(t *testing.T) {
	if got := mergeRecords(nil); len(got) != 0 {
		t.Fatalf("Merge(nil) returned %d records", len(got))
	}
	if got := mergeRecords([][]Record{nil, nil}); len(got) != 0 {
		t.Fatalf("Merge of empty shards returned %d records", len(got))
	}
	one := [][]Record{{{TID: 1, Kind: 1}, {TID: 2, Kind: 1}}}
	got := mergeRecords(one)
	if len(got) != 2 || got[0].TID != 1 || got[1].TID != 2 {
		t.Fatalf("single-shard merge mangled order: %+v", got)
	}
}

// Property: any flushed prefix of appends scans back exactly.
func TestScanPrefixProperty(t *testing.T) {
	f := func(seed uint64) bool {
		st := &stats.Stats{}
		cfg := memsim.DefaultConfig()
		cfg.DRAMBytes = 1 << 20
		cfg.NVRAMBytes = 1 << 20
		mem := memsim.New(cfg, st)
		s := NewStream(mem, cfg.NVRAMBase, 16<<10, stats.CatRedoLog)
		rng := engine.NewRNG(seed)
		var appended []Record
		flushedCount := 0
		for i := 0; i < 60; i++ {
			p := make([]byte, rng.Intn(60))
			for j := range p {
				p[j] = byte(rng.Intn(256))
			}
			r := Record{TID: uint32(i + 1), Kind: uint8(1 + rng.Intn(5)), Payload: p}
			s.Append(r, 0)
			appended = append(appended, r)
			if rng.Intn(3) == 0 {
				s.Flush(0)
				flushedCount = len(appended)
			}
		}
		got := Scan(mem, cfg.NVRAMBase, 16<<10)
		if len(got) < flushedCount {
			return false
		}
		for i := 0; i < flushedCount; i++ {
			if got[i].TID != appended[i].TID || !bytes.Equal(got[i].Payload, appended[i].Payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// scanShards scans one region per base address, each of the given capacity.
func scanShards(mem *memsim.Memory, bases []memsim.PAddr, capacity int) [][]Record {
	out := make([][]Record, len(bases))
	for i, base := range bases {
		out[i] = Scan(mem, base, capacity)
	}
	return out
}

// mergeRecords merges scanned shards by their records' TIDs.
func mergeRecords(shards [][]Record) []Record {
	return Merge(shards, func(r *Record) uint32 { return r.TID })
}

// maxTID returns the highest TID among records (0 when empty).
func maxTID(recs []Record) uint32 {
	var m uint32
	for _, r := range recs {
		m = max(m, r.TID)
	}
	return m
}
