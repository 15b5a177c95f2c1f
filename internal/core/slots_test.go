package core

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/wal"
)

// fullSizeEnv is a one-core environment whose SSP cache has the paper
// machine's N·T+O = 1152 slots.
func fullSizeEnv(t *testing.T) (*SSP, func(vpn int)) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Entries = 1152
	env, s := sizedEnv(t, envSize{cores: 1, tlb: 64, heapPages: 512, slots: cfg.Entries, nvramMB: 24}, cfg)
	return s, func(vpn int) { mapPage(env, vpn) }
}

// A fresh SSP writes no slot line: its spare frames are reserved in one
// step, frame sid being slot sid's, and the heap's first frame comes right
// after them, as it did after the eager format.
func TestFreshSlotArrayIsUnwritten(t *testing.T) {
	s, _ := fullSizeEnv(t)
	for first := 0; first < s.cfg.Entries; first += memsim.PageBytes / slotBytes {
		if s.env.Mem.Written(s.slotAddr(first)) {
			t.Fatalf("the page of slots %d.. was written by a fresh SSP", first)
		}
	}
	if n := s.env.Frames.InUse(); n != s.cfg.Entries {
		t.Errorf("a fresh SSP holds %d frames, want its %d spares", n, s.cfg.Entries)
	}
	if pa, want := s.env.Frames.Alloc(), s.env.Layout.FrameAddr(s.cfg.Entries); pa != want {
		t.Errorf("first data frame %#x, want %#x (right after the spares)", pa, want)
	}
	if len(s.slotShadow) != 0 {
		t.Errorf("a fresh SSP's slot tables hold %d slots", len(s.slotShadow))
	}
}

// Recovery decodes only the slot lines NVRAM holds: after a dozen
// transactions over five pages and a checkpoint, at most the slots handed
// out plus one page of lines — where the eager format had it decode all
// 1152.
func TestRecoverDecodesOnlyWrittenSlots(t *testing.T) {
	s, mapVPN := fullSizeEnv(t)
	for vpn := 1; vpn <= 5; vpn++ {
		mapVPN(vpn)
	}
	rng := engine.NewRNG(1000003)
	now := engine.Cycles(0)
	for i := 0; i < 12; i++ {
		now = s.Begin(0, now)
		for j := 0; j <= rng.Intn(6); j++ {
			now = s.Store(0, va(1+rng.Intn(5), rng.Intn(64)), []byte{byte(i + 1)}, now)
		}
		now = s.Commit(0, now)
		if i == 7 {
			s.checkpointShard(0, now) // some slot lines reach NVRAM
		}
	}
	handed := len(s.slotShadow)
	before := s.shadows()
	crashRecover(t, s.env, s)
	if s.slotDecodes == 0 || s.slotDecodes > handed+memsim.PageBytes/slotBytes {
		t.Errorf("recovery decoded %d slot lines; %d slots were handed out", s.slotDecodes, handed)
	}
	t.Logf("%d slots handed out, %d slot lines decoded", handed, s.slotDecodes)
	if after := s.shadows(); after != before {
		t.Errorf("recovered slot states differ:\nbefore %s\nafter  %s", before, after)
	}
	if msg := s.DebugCheckFrames(); msg != "" {
		t.Fatal(msg)
	}
}

// Recovery decodes each journal record's payload once: on a four-shard image
// holding cross-shard prepares and their coordinator ends, relaxed epochs
// and their seals, the payload decodes equal the records the shards' scans
// return, so no later step of recovery decodes a payload again.
func TestRecoverDecodesEachJournalRecordOnce(t *testing.T) {
	env, s := shardEnv(t, 4, 4)
	s.cfg.DurabilityEpoch = 1 << 30 // only the Syncs harden
	for vpn := 0; vpn < 8; vpn++ {
		mapPage(env, vpn)
	}
	rng := engine.NewRNG(5)
	now := engine.Cycles(0)
	for i := 0; i < 24; i++ {
		c := i % 4
		if i%3 == 0 {
			now = s.BeginGlobal(c, now)
		} else {
			now = s.Begin(c, now)
		}
		for j := 0; j <= 1+rng.Intn(3); j++ {
			now = s.Store(c, va(rng.Intn(8), rng.Intn(64)), []byte{byte(i + 1)}, now)
		}
		now = s.CommitRelaxed(c, now)
		if i%5 == 4 {
			now = s.Sync(c, now)
		}
	}
	scanned, kinds := 0, map[uint8]int{}
	for _, base := range env.Layout.JournalBase {
		for _, r := range wal.Scan(env.Mem, base, env.Layout.Cfg.JournalBytes) {
			scanned++
			kinds[r.Kind]++
		}
	}
	for _, k := range []uint8{recUpdateEnd, recPrepare, recGlobalEnd, recEpochSeal} {
		if kinds[k] == 0 {
			t.Fatalf("the image holds no record of kind %d (%v); the test needs every kind", k, kinds)
		}
	}
	s.journalDecodes = 0
	crashRecover(t, env, s)
	if s.journalDecodes != scanned {
		t.Errorf("recovery decoded %d journal payloads for %d records scanned", s.journalDecodes, scanned)
	}
	t.Logf("%d records scanned (by kind %v), %d decoded", scanned, kinds, s.journalDecodes)
}

// shadows formats every slot's journal-consistent state but its version
// (which the single journal's records do not carry).
func (s *SSP) shadows() string {
	out := ""
	for sid := 0; sid < s.cfg.Entries; sid++ {
		st := s.shadowOf(sid)
		out += fmt.Sprintf("%d:%d/%#x/%#x/%#x ", sid, st.vpn, st.ppn0, st.ppn1, st.committed)
	}
	return out
}

// After recovery the free slots are handed out in ascending order, as the
// eager format's full free list (every free slot, pushed from the highest
// down) handed them out: the released slots below the tables' end first,
// then the never-used ones above it.
func TestRecoveredHandOutOrder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Entries = 8
	cfg.ResidentEntries = 8
	env, s := sizedEnv(t, envSize{cores: 1, tlb: 4, heapPages: 512, slots: 64, nvramMB: 24}, cfg)
	now := engine.Cycles(0)
	for vpn := 0; vpn < 6; vpn++ {
		mapPage(env, vpn)
		now = s.Begin(0, now)
		now = s.Store(0, va(vpn, 1), []byte{byte(vpn)}, now)
		now = s.Commit(0, now)
	}
	// Reads of new pages evict committed entries: their slots are released
	// (journaled) and taken by tenants that never commit, so recovery finds
	// them free below the slots never used.
	var buf [8]byte
	for vpn := 6; vpn < 10; vpn++ {
		mapPage(env, vpn)
		now = s.Load(0, va(vpn, 0), buf[:], now)
	}
	crashRecover(t, env, s)
	var want []int
	for sid := 0; sid < s.cfg.Entries; sid++ {
		if s.shadowOf(sid).vpn < 0 {
			want = append(want, sid)
		}
	}
	if len(want) == 0 || want[0] >= len(s.slotShadow) {
		t.Fatalf("no released slot below the %d slot tables (free %v); the test would prove nothing", len(s.slotShadow), want)
	}
	if order := s.freeOrder(); fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("freeOrder lists %v, want %v", order, want)
	}
	var got []int
	for sid, ok := s.takeFreeSlot(); ok; sid, ok = s.takeFreeSlot() {
		got = append(got, sid)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("recovered slots handed out in order %v, want %v", got, want)
	}
}
