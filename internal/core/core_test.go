package core

import (
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/cachesim"
	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/tlbsim"
	"repro/internal/txn"
	"repro/internal/vm"
	"repro/internal/wal"
)

// envSize sizes a test environment.
type envSize struct {
	cores     int
	tlb       int // entries per core; tiny TLBs make evictions easy to force
	heapPages int
	slots     int // persistent SSP slots
	nvramMB   int
	shards    int // metadata journal shards; 0 keeps the layout's default
}

// testEnv assembles a minimal environment around the SSP backend.
func testEnv(t *testing.T, cores int) (*txn.Env, *SSP) {
	t.Helper()
	return shardEnv(t, cores, 0)
}

// sizedEnv is testEnv with the machine's sizes and the SSP configuration
// chosen by the caller.
func sizedEnv(tb testing.TB, z envSize, cfg Config) (*txn.Env, *SSP) {
	tb.Helper()
	st := &stats.Stats{}
	mcfg := memsim.DefaultConfig()
	mcfg.DRAMBytes = 1 << 20
	mcfg.NVRAMBytes = uint64(z.nvramMB) << 20
	mem := memsim.New(mcfg, st)
	lcfg := vm.DefaultLayoutConfig(z.cores)
	lcfg.MaxHeapPages = z.heapPages
	lcfg.SSPSlots = z.slots
	lcfg.JournalBytes = 8 << 10
	if z.shards > 0 {
		lcfg.JournalShards = z.shards
	}
	lcfg.LogBytes = 32 << 10
	layout := vm.NewLayout(mcfg, lcfg)
	env := &txn.Env{
		Mem:           mem,
		Caches:        cachesim.New(cachesim.DefaultConfig(z.cores), mem, st),
		PT:            vm.NewPageTable(mem, layout),
		Frames:        vm.NewFrameAlloc(layout),
		Layout:        layout,
		Stats:         st,
		BarrierCycles: 30,
	}
	for c := 0; c < z.cores; c++ {
		env.TLBs = append(env.TLBs, tlbsim.New(z.tlb, st))
	}
	vm.Format(mem, layout, 0)
	return env, NewSSP(env, cfg, true)
}

// mapPage maps heap vpn to a fresh frame.
func mapPage(env *txn.Env, vpn int) {
	frame := env.Frames.Alloc()
	env.PT.Set(vpn, frame, 0)
}

func va(vpn, line int) uint64 {
	return vm.VAOf(vpn) + uint64(line)*memsim.LineBytes
}

func TestAtomicUpdateFlipsBitmaps(t *testing.T) {
	env, s := testEnv(t, 1)
	mapPage(env, 0)
	s.Begin(0, 0)
	s.Store(0, va(0, 3), []byte{1, 2, 3, 4, 5, 6, 7, 8}, 100)
	meta := s.metaOf(0)
	if meta.current&(1<<3) == 0 {
		t.Error("current bit not flipped on first write")
	}
	if meta.committed&(1<<3) != 0 {
		t.Error("committed bit changed before commit")
	}
	if s.ws[0].bitmap(0)&(1<<3) == 0 {
		t.Error("updated bit not set in write-set buffer")
	}
	if env.Stats.FlipBroadcasts != 1 {
		t.Errorf("flip broadcasts = %d", env.Stats.FlipBroadcasts)
	}
	// Second write to the same line: no second flip.
	s.Store(0, va(0, 3)+8, []byte{9}, 200)
	if env.Stats.FlipBroadcasts != 1 {
		t.Errorf("repeated write broadcast again: %d", env.Stats.FlipBroadcasts)
	}
	s.Commit(0, 300)
	if meta.committed&(1<<3) == 0 {
		t.Error("committed bit not updated at commit")
	}
	if meta.current != meta.committed {
		t.Error("current != committed after commit")
	}
	if len(s.ws[0].vpns) != 0 {
		t.Error("write-set buffer not cleared")
	}
}

func TestCommittedDataNeverOverwrittenInPlace(t *testing.T) {
	env, s := testEnv(t, 1)
	mapPage(env, 0)
	// Commit value 1 to line 0, remember which frame holds it.
	s.Begin(0, 0)
	s.Store(0, va(0, 0), []byte{1}, 0)
	s.Commit(0, 0)
	meta := s.metaOf(0)
	committedSide := meta.committed & 1
	committedPA := meta.lineAddr(0, committedSide)
	var durable [1]byte
	env.Mem.Peek(committedPA, durable[:])
	if durable[0] != 1 {
		t.Fatalf("committed data not durable: %d", durable[0])
	}
	// A new transaction writing the same line must target the other frame.
	s.Begin(0, 0)
	s.Store(0, va(0, 0), []byte{2}, 0)
	env.Caches.FlushAll(0, stats.CatData) // even forcing write-backs...
	env.Mem.Peek(committedPA, durable[:])
	if durable[0] != 1 {
		t.Fatal("speculative write reached the committed frame in place")
	}
	s.Commit(0, 0)
}

func TestAbortRestoresCurrentBits(t *testing.T) {
	env, s := testEnv(t, 1)
	mapPage(env, 0)
	s.Begin(0, 0)
	s.Store(0, va(0, 5), []byte{7}, 0)
	s.Commit(0, 0)
	meta := s.metaOf(0)
	before := meta.current

	s.Begin(0, 0)
	s.Store(0, va(0, 5), []byte{8}, 0)
	s.Store(0, va(0, 9), []byte{9}, 0)
	s.Abort(0, 0)
	if meta.current != before {
		t.Error("abort did not restore current bitmap")
	}
	var buf [1]byte
	s.Load(0, va(0, 5), buf[:], 0)
	if buf[0] != 7 {
		t.Errorf("read after abort: %d, want 7", buf[0])
	}
	if env.Stats.Aborts != 1 {
		t.Errorf("aborts = %d", env.Stats.Aborts)
	}
}

func TestTLBEvictionTriggersConsolidation(t *testing.T) {
	env, s := testEnv(t, 1)
	for vpn := 0; vpn < 12; vpn++ {
		mapPage(env, vpn)
	}
	// Dirty page 0 so it has a split committed bitmap.
	s.Begin(0, 0)
	s.Store(0, va(0, 1), []byte{1}, 0)
	s.Commit(0, 0)
	if s.metaOf(0).committed == 0 {
		t.Fatal("page 0 has no split state")
	}
	// Touch 11 more pages through the 8-entry TLB: page 0 must get evicted
	// and consolidated.
	for vpn := 1; vpn < 12; vpn++ {
		s.Begin(0, 0)
		s.Store(0, va(vpn, 0), []byte{byte(vpn)}, 0)
		s.Commit(0, 0)
	}
	if env.Stats.Consolidations == 0 {
		t.Fatal("no consolidation after TLB pressure")
	}
	if s.metaOf(0).committed != 0 {
		t.Error("page 0 not consolidated")
	}
	// The data survives consolidation.
	var buf [1]byte
	s.Load(0, va(0, 1), buf[:], 0)
	if buf[0] != 1 {
		t.Errorf("consolidation lost data: %d", buf[0])
	}
}

func TestConsolidationCopiesMinority(t *testing.T) {
	env, s := testEnv(t, 1)
	mapPage(env, 0)
	// Commit 3 lines: committed bitmap has 3 ones -> minority on P1.
	s.Begin(0, 0)
	for line := 0; line < 3; line++ {
		s.Store(0, va(0, line), []byte{byte(line + 1)}, 0)
	}
	s.Commit(0, 0)
	meta := s.metaOf(0)
	p0 := meta.ppn0
	before := env.Stats.ConsolidatedLines
	env.TLBs[0].Invalidate(0) // page becomes inactive; eager consolidation fires
	if env.Stats.ConsolidatedLines-before != 3 {
		t.Errorf("copied %d lines, want 3", env.Stats.ConsolidatedLines-before)
	}
	if meta.ppn0 != p0 {
		t.Error("minority copy should keep P0 as survivor")
	}
	if meta.committed != 0 || meta.current != 0 {
		t.Error("bitmaps not reset after consolidation")
	}
	for line := 0; line < 3; line++ {
		var buf [1]byte
		s.Load(0, va(0, line), buf[:], 0)
		if buf[0] != byte(line+1) {
			t.Errorf("line %d lost: %d", line, buf[0])
		}
	}
}

func TestConsolidationSwitchesToMajoritySide(t *testing.T) {
	env, s := testEnv(t, 1)
	mapPage(env, 0)
	// Commit 40 lines (> 32): majority on P1, survivor must be P1 and the
	// page table must repoint.
	s.Begin(0, 0)
	for line := 0; line < 40; line++ {
		s.Store(0, va(0, line), []byte{byte(line + 1)}, 0)
	}
	s.Commit(0, 0)
	meta := s.metaOf(0)
	oldP1 := meta.ppn1
	before := env.Stats.ConsolidatedLines
	env.TLBs[0].Invalidate(0)
	if copied := env.Stats.ConsolidatedLines - before; copied != 24 {
		t.Errorf("copied %d lines, want 24 (the minority)", copied)
	}
	if meta.ppn0 != oldP1 {
		t.Error("survivor should be the old shadow page")
	}
	if pa, _ := env.PT.Lookup(0); pa != meta.ppn0 {
		t.Error("page table not repointed to survivor")
	}
}

func TestFallbackOnWSBOverflow(t *testing.T) {
	env, s := testEnv(t, 1)
	cfgPages := s.cfg.WSBEntries + 3
	for vpn := 0; vpn < cfgPages; vpn++ {
		mapPage(env, vpn)
	}
	s.cfg.WSBEntries = 4
	s.Begin(0, 0)
	for vpn := 0; vpn < 8; vpn++ {
		s.Store(0, va(vpn, 0), []byte{byte(vpn + 1)}, 0)
	}
	if !s.fallback[0] {
		t.Fatal("transaction did not divert to the fall-back path")
	}
	s.Commit(0, 0)
	if env.Stats.FallbackTxns != 1 {
		t.Errorf("fallback txns = %d", env.Stats.FallbackTxns)
	}
	// All 8 writes are durable.
	for vpn := 0; vpn < 8; vpn++ {
		var buf [1]byte
		s.Load(0, va(vpn, 0), buf[:], 0)
		if buf[0] != byte(vpn+1) {
			t.Errorf("page %d lost after fallback commit: %d", vpn, buf[0])
		}
	}
	// And survive a crash.
	s.Crash()
	env.Caches.DropAll()
	for _, tl := range env.TLBs {
		tl.Drop()
	}
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	env.PT.Rebuild()
	for vpn := 0; vpn < 8; vpn++ {
		var buf [1]byte
		s.Load(0, va(vpn, 0), buf[:], 0)
		if buf[0] != byte(vpn+1) {
			t.Errorf("page %d lost after crash: %d", vpn, buf[0])
		}
	}
}

func TestFallbackAbortRollsBack(t *testing.T) {
	env, s := testEnv(t, 1)
	for vpn := 0; vpn < 8; vpn++ {
		mapPage(env, vpn)
	}
	// Committed baseline.
	s.Begin(0, 0)
	s.Store(0, va(0, 0), []byte{0xAA}, 0)
	s.Commit(0, 0)

	s.cfg.WSBEntries = 2
	s.Begin(0, 0)
	for vpn := 0; vpn < 6; vpn++ {
		s.Store(0, va(vpn, 0), []byte{0xBB}, 0)
	}
	if !s.fallback[0] {
		t.Fatal("no fallback")
	}
	s.Abort(0, 0)
	var buf [1]byte
	s.Load(0, va(0, 0), buf[:], 0)
	if buf[0] != 0xAA {
		t.Errorf("fallback abort lost committed data: %#x", buf[0])
	}
	s.Load(0, va(5, 0), buf[:], 0)
	if buf[0] != 0 {
		t.Errorf("fallback abort leaked: %#x", buf[0])
	}
}

func TestCheckpointTruncatesJournal(t *testing.T) {
	env, s := testEnv(t, 1)
	mapPage(env, 0)
	// Fill the journal past the high-water mark with many commits.
	for i := 0; i < 400; i++ {
		s.Begin(0, 0)
		s.Store(0, va(0, i%64), []byte{byte(i)}, 0)
		s.Commit(0, 0)
	}
	if env.Stats.Checkpoints == 0 {
		t.Fatal("no checkpoint despite journal pressure")
	}
	if s.journals[0].Used() >= s.journals[0].Capacity() {
		t.Error("journal overflowed")
	}
	// The persistent slot array must now carry the page's state.
	var slotBuf [slotBytes]byte
	env.Mem.Peek(s.slotAddr(s.metaOf(0).slot), slotBuf[:])
	st, err := slotLine.get(0, slotBuf[:], &env.Layout)
	if err != nil || st.vpn != 0 {
		t.Errorf("checkpointed slot vpn = %d (%v)", st.vpn, err)
	}
}

func TestSlotEncodingRoundTrip(t *testing.T) {
	env, _ := testEnv(t, 1)
	frames := []memsim.PAddr{env.Layout.FrameAddr(3), env.Layout.FrameAddr(7)}
	cases := []slotState{
		{vpn: -1, ppn1: frames[1]},
		{vpn: 42, ppn0: frames[0], ppn1: frames[1], committed: 0xDEADBEEF, ver: 9},
	}
	for _, st := range cases {
		var line [slotBytes]byte
		slotLine.put(line[:], st, &env.Layout)
		if [slotBytes - 20]byte(line[20:]) != [slotBytes - 20]byte{} {
			t.Errorf("slot line tail written: %x", line)
		}
		got, err := slotLine.get(0, line[:], &env.Layout)
		if err != nil || got.vpn != st.vpn || got.ppn1 != st.ppn1 || got.committed != st.committed || got.ver != st.ver {
			t.Errorf("slot round trip: %+v -> %+v (%v)", st, got, err)
		}
		if st.vpn >= 0 && got.ppn0 != st.ppn0 {
			t.Errorf("ppn0 lost: %+v -> %+v", st, got)
		}
	}
	// A corrupt line is an error naming the slot and the value, not a panic.
	var line [slotBytes]byte
	slotLine.put(line[:], cases[1], &env.Layout)
	binary.LittleEndian.PutUint32(line[8:], uint32(env.Layout.Frames))
	want := fmt.Sprintf("core: slot 5 names frame index %d of %d", env.Layout.Frames, env.Layout.Frames)
	if _, err := slotLine.get(5, line[:], &env.Layout); err == nil || err.Error() != want {
		t.Errorf("decoding a spare frame past the pool returned %v, want %q", err, want)
	}
}

func TestJournalPayloadRoundTrip(t *testing.T) {
	env, _ := testEnv(t, 1)
	st := slotState{vpn: 9, ppn0: env.Layout.FrameAddr(1), ppn1: env.Layout.FrameAddr(2), committed: 0x55, ver: 7}
	// The paper-model 24-byte record (no version)...
	sid, got, err := decodeJournalPayload(putJournalPayload(make([]byte, journalPayloadVerBytes), 13, st, &env.Layout, false), &env.Layout)
	if err != nil || sid != 13 || got.vpn != 9 || got.ppn0 != st.ppn0 || got.ppn1 != st.ppn1 || got.committed != 0x55 {
		t.Errorf("journal payload round trip: %+v (sid %d, %v)", got, sid, err)
	}
	if got.ver != 0 {
		t.Errorf("version leaked into the unsharded payload: %d", got.ver)
	}
	// ...and the sharded 28-byte record carrying the slot update version.
	sid, got, err = decodeJournalPayload(putJournalPayload(make([]byte, journalPayloadVerBytes), 13, st, &env.Layout, true), &env.Layout)
	if err != nil || sid != 13 || got.vpn != 9 || got.committed != 0x55 || got.ver != 7 {
		t.Errorf("versioned journal payload round trip: %+v (sid %d, %v)", got, sid, err)
	}
}

func TestLRUSetResidency(t *testing.T) {
	l := newLRUSet(2)
	if l.Touch(1) {
		t.Error("first touch should miss")
	}
	if !l.Touch(1) {
		t.Error("second touch should hit")
	}
	l.Touch(2)
	l.Touch(3) // evicts 1 (LRU)
	if l.Touch(1) {
		t.Error("evicted entry should miss")
	}
	if l.Touch(3) { // 3 was just... 1's insert evicted 2; 3 should still be resident
		// Touch(1) inserted 1 and evicted the LRU (2), so 3 remains.
	} else {
		t.Error("3 should still be resident")
	}
	l.Reset()
	if l.Touch(3) {
		t.Error("reset did not clear the set")
	}
}

func TestMultiCoreSamePageDifferentLines(t *testing.T) {
	env, s := testEnv(t, 2)
	mapPage(env, 0)
	// Two cores hold open transactions on different lines of the same page
	// simultaneously — the per-core updated bitmaps and shared current
	// bitmap of Figure 1.
	s.Begin(0, 0)
	s.Begin(1, 0)
	s.Store(0, va(0, 1), []byte{0x11}, 0)
	s.Store(1, va(0, 2), []byte{0x22}, 0)
	meta := s.metaOf(0)
	if meta.coreRef != 2 {
		t.Errorf("core refcount = %d, want 2", meta.coreRef)
	}
	s.Commit(0, 0)
	if meta.committed&(1<<1) == 0 {
		t.Error("core 0's line not committed")
	}
	if meta.committed&(1<<2) != 0 {
		t.Error("core 1's uncommitted line leaked into committed bitmap")
	}
	s.Commit(1, 0)
	if meta.committed&(1<<2) == 0 {
		t.Error("core 1's line not committed")
	}
	var buf [1]byte
	s.Load(0, va(0, 1), buf[:], 0)
	if buf[0] != 0x11 {
		t.Error("core 0 data lost")
	}
	s.Load(1, va(0, 2), buf[:], 0)
	if buf[0] != 0x22 {
		t.Error("core 1 data lost")
	}
}

func TestSubPageGranularity(t *testing.T) {
	env, _ := testEnv(t, 1)
	cfg := DefaultConfig()
	cfg.Entries = 64
	cfg.ResidentEntries = 64
	cfg.SubPageLines = 4 // 256-byte sub-pages (§4.3)
	s := NewSSP(env, cfg, false)
	// testEnv's NewSSP already formatted; Recover rebuilds from that
	// image (including frame reservations for the slot spares).
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	mapPage(env, 0)
	s.Begin(0, 0)
	s.Store(0, va(0, 5), []byte{1}, 0) // unit 1 covers lines 4..7
	s.Commit(0, 0)
	meta := s.metaOf(0)
	if meta.committed != 1<<1 {
		t.Errorf("committed bitmap = %#x, want unit bit 1", meta.committed)
	}
	// Lines 4..7 all read back through the new side consistently.
	var buf [1]byte
	s.Load(0, va(0, 5), buf[:], 0)
	if buf[0] != 1 {
		t.Errorf("sub-page data lost: %d", buf[0])
	}
}

func TestRecoverySkipsUnsealedBatch(t *testing.T) {
	env, s := testEnv(t, 1)
	mapPage(env, 0)
	mapPage(env, 1)
	s.Begin(0, 0)
	s.Store(0, va(0, 0), []byte{1}, 0)
	s.Commit(0, 0)

	// Forge an unsealed batch directly in the journal: an update record
	// with no recUpdateEnd.
	st := slotState{vpn: 1, ppn0: mustPTE(env, 1), ppn1: s.shadowOf(1).ppn1, committed: 1, ver: s.allocVer()}
	s.journals[0].Append(wal.Record{TID: s.allocTID(), Kind: recUpdate, Payload: putJournalPayload(make([]byte, journalPayloadVerBytes), 1, st, &env.Layout, s.sharded())}, 0)
	s.journals[0].Flush(0)

	s.Crash()
	env.Caches.DropAll()
	env.TLBs[0].Drop()
	if err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	if env.Stats.RolledBackTxns == 0 {
		t.Error("unsealed batch not counted as rolled back")
	}
	if s.shadowOf(1).vpn == 1 {
		t.Error("unsealed update applied during recovery")
	}
}

func mustPTE(env *txn.Env, vpn int) memsim.PAddr {
	pa, ok := env.PT.Lookup(vpn)
	if !ok {
		panic("unmapped")
	}
	return pa
}

func TestDrainReturnsLatestTime(t *testing.T) {
	env, s := testEnv(t, 1)
	mapPage(env, 0)
	s.Begin(0, 100)
	s.Store(0, va(0, 0), []byte{1}, 100)
	end := s.Commit(0, 100)
	if d := s.Drain(50); d < end {
		t.Errorf("drain returned %d, before commit end %d", d, end)
	}
	_ = engine.Cycles(0)
}
