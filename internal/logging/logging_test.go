package logging

import (
	"testing"

	"repro/internal/cachesim"
	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
	"repro/internal/tlbsim"
	"repro/internal/txn"
	"repro/internal/vm"
)

func testEnv(t *testing.T, cores int) *txn.Env {
	t.Helper()
	st := &stats.Stats{}
	mcfg := memsim.DefaultConfig()
	mcfg.DRAMBytes = 1 << 20
	mcfg.NVRAMBytes = 16 << 20
	mem := memsim.New(mcfg, st)
	lcfg := vm.DefaultLayoutConfig(cores)
	lcfg.MaxHeapPages = 256
	lcfg.SSPSlots = 16
	lcfg.JournalBytes = 8 << 10
	lcfg.LogBytes = 32 << 10
	layout := vm.NewLayout(mcfg, lcfg)
	env := &txn.Env{
		Mem:           mem,
		Caches:        cachesim.New(cachesim.DefaultConfig(cores), mem, st),
		PT:            vm.NewPageTable(mem, layout),
		Frames:        vm.NewFrameAlloc(layout),
		Layout:        layout,
		Stats:         st,
		BarrierCycles: 30,
	}
	for c := 0; c < cores; c++ {
		env.TLBs = append(env.TLBs, tlbsim.New(64, st))
	}
	vm.Format(mem, layout, 0)
	return env
}

func mapPage(env *txn.Env, vpn int) {
	env.PT.Set(vpn, env.Frames.Alloc(), 0)
}

func va(vpn, off int) uint64 { return vm.VAOf(vpn) + uint64(off) }

func TestUndoBlocksOnFirstStoreOnly(t *testing.T) {
	env := testEnv(t, 1)
	u := NewUndo(env)
	mapPage(env, 0)
	u.Begin(0, 0)
	t1 := u.Store(0, va(0, 0), []byte{1}, 0)
	before := env.Stats.UndoRecords
	t2 := u.Store(0, va(0, 8), []byte{2}, t1) // same line: no new record
	if env.Stats.UndoRecords != before {
		t.Error("second store to the same line logged again")
	}
	if env.Stats.UndoRecords != 1 {
		t.Errorf("undo records = %d", env.Stats.UndoRecords)
	}
	// The first store's blocking persist makes it far more expensive than
	// the second (cache-hit) store.
	if t1 < 500 {
		t.Errorf("first store did not block on the log persist: %d cycles", t1)
	}
	if t2-t1 > t1 {
		t.Errorf("second store (%d) should be much cheaper than first (%d)", t2-t1, t1)
	}
	u.Commit(0, t2)
}

func TestUndoAbortRestores(t *testing.T) {
	env := testEnv(t, 1)
	u := NewUndo(env)
	mapPage(env, 0)
	u.Begin(0, 0)
	u.Store(0, va(0, 0), []byte{0xAA}, 0)
	u.Commit(0, 0)

	u.Begin(0, 0)
	u.Store(0, va(0, 0), []byte{0xBB}, 0)
	u.Abort(0, 0)
	var buf [1]byte
	u.Load(0, va(0, 0), buf[:], 0)
	if buf[0] != 0xAA {
		t.Errorf("abort did not restore: %#x", buf[0])
	}
}

func TestUndoRecoveryRollsBackInPlaceWrites(t *testing.T) {
	env := testEnv(t, 1)
	u := NewUndo(env)
	mapPage(env, 0)
	u.Begin(0, 0)
	u.Store(0, va(0, 0), []byte{0x11}, 0)
	u.Commit(0, 0)

	// Uncommitted transaction whose in-place write reaches NVRAM.
	u.Begin(0, 0)
	u.Store(0, va(0, 0), []byte{0x22}, 0)
	env.Caches.FlushAll(0, stats.CatData) // evictions push it in place

	// Power failure.
	env.Caches.DropAll()
	u.Crash()
	if err := u.Recover(); err != nil {
		t.Fatal(err)
	}
	var buf [1]byte
	env.Mem.Peek(mustFrame(env, 0), buf[:])
	if buf[0] != 0x11 {
		t.Errorf("recovery did not roll back in-place write: %#x", buf[0])
	}
	if env.Stats.RolledBackTxns != 1 {
		t.Errorf("rolled back = %d", env.Stats.RolledBackTxns)
	}
}

func mustFrame(env *txn.Env, vpn int) memsim.PAddr {
	pa, ok := env.PT.Lookup(vpn)
	if !ok {
		panic("unmapped")
	}
	return pa
}

func TestRedoCommitPersistsLogNotData(t *testing.T) {
	env := testEnv(t, 1)
	r := NewRedo(env, DefaultRedoConfig())
	mapPage(env, 0)
	r.Begin(0, 0)
	r.Store(0, va(0, 0), []byte{0x77}, 0)
	r.Commit(0, 0)
	if env.Stats.RedoRecords != 1 {
		t.Errorf("redo records = %d", env.Stats.RedoRecords)
	}
	if env.Stats.WriteBytes(stats.CatRedoLog) == 0 {
		t.Error("no redo log bytes written")
	}
	// Data write-back happened in the background (CatData written).
	if env.Stats.WriteBytes(stats.CatData) == 0 {
		t.Error("background write-back did not run")
	}
}

func TestRedoUncommittedInvisibleAfterCrash(t *testing.T) {
	env := testEnv(t, 1)
	r := NewRedo(env, DefaultRedoConfig())
	mapPage(env, 0)
	r.Begin(0, 0)
	r.Store(0, va(0, 0), []byte{0x55}, 0)
	// Crash before commit: the speculative line was pinned in caches.
	env.Caches.DropAll()
	r.Crash()
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	var buf [1]byte
	env.Mem.Peek(mustFrame(env, 0), buf[:])
	if buf[0] != 0 {
		t.Errorf("uncommitted redo data in place: %#x", buf[0])
	}
}

func TestRedoRecoveryReplaysCommitted(t *testing.T) {
	env := testEnv(t, 1)
	r := NewRedo(env, DefaultRedoConfig())
	mapPage(env, 0)
	r.Begin(0, 0)
	r.Store(0, va(0, 0), []byte{0x99}, 0)
	r.Commit(0, 0)
	// Simulate the crash losing the background write-back: clobber the
	// in-place line, then replay from the log.
	env.Mem.Poke(mustFrame(env, 0), []byte{0x00})
	env.Caches.DropAll()
	r.Crash()
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	var buf [1]byte
	env.Mem.Peek(mustFrame(env, 0), buf[:])
	if buf[0] != 0x99 {
		t.Errorf("replay did not restore committed data: %#x", buf[0])
	}
	if env.Stats.ReplayedRecords == 0 {
		t.Error("no replayed records counted")
	}
}

// A committed log on another core is stale once a later commit has
// written back over its lines: recovery replays only the last commit's log.
// Core 0 begins first but commits last, so TIDs must follow commit order,
// not begin order.
func TestRedoRecoverySkipsStaleLogs(t *testing.T) {
	env := testEnv(t, 2)
	r := NewRedo(env, DefaultRedoConfig())
	mapPage(env, 0)
	r.Begin(0, 0)
	r.Begin(1, 0)
	r.Store(1, va(0, 0), []byte{0x11}, 0)
	r.Commit(1, 0)
	r.Store(0, va(0, 0), []byte{0x22}, 0)
	r.Commit(0, 0)
	env.Caches.DropAll()
	r.Crash()
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	var buf [1]byte
	env.Mem.Peek(mustFrame(env, 0), buf[:])
	if buf[0] != 0x22 {
		t.Errorf("recovery regressed the line to %#x, want the last commit's 0x22", buf[0])
	}
}

func TestRedoQueueStalls(t *testing.T) {
	env := testEnv(t, 1)
	r := NewRedo(env, RedoConfig{QueueLines: 2})
	for vpn := 0; vpn < 4; vpn++ {
		mapPage(env, vpn)
	}
	// Issue commits back-to-back at a pinned core time, so the background
	// write-back queue cannot drain between them.
	var last engine.Cycles
	for i := 0; i < 20; i++ {
		r.Begin(0, 0)
		for vpn := 0; vpn < 4; vpn++ {
			r.Store(0, va(vpn, (i%64)*64), []byte{byte(i)}, 0)
		}
		last = r.Commit(0, 0)
	}
	if env.Stats.WritebackStalls == 0 {
		t.Error("tiny queue never stalled a commit")
	}
	if d := r.Drain(last); d < last {
		t.Error("drain returned before the last commit")
	}
}

// TestRedoWriteBackEngines: with one engine (the modelled DHTM behaviour)
// two cores' post-commit write-backs funnel through one queue and one
// clock, so a commit's queue-full stall waits behind the OTHER core's
// write-backs too; with per-core engines each core only ever waits on its
// own. Identical alternating command streams must therefore finish no later
// — and, with a tiny queue, strictly earlier — on per-core engines, with
// identical durable state.
func TestRedoWriteBackEngines(t *testing.T) {
	run := func(engines int) (last engine.Cycles, r *Redo) {
		env := testEnv(t, 2)
		r = NewRedo(env, RedoConfig{QueueLines: 2, WriteBackEngines: engines})
		for vpn := 0; vpn < 4; vpn++ {
			mapPage(env, vpn)
		}
		for i := 0; i < 20; i++ {
			core := i % 2
			r.Begin(core, 0)
			for vpn := 0; vpn < 4; vpn++ {
				r.Store(core, va(vpn, (i%64)*64), []byte{byte(i)}, 0)
			}
			if done := r.Commit(core, 0); done > last {
				last = done
			}
		}
		r.Drain(last)
		return last, r
	}
	sharedLast, _ := run(1)
	perCoreLast, r := run(2)
	if perCoreLast >= sharedLast {
		t.Errorf("per-core engines finished at %d, shared engine at %d; independent queues should stall less",
			perCoreLast, sharedLast)
	}
	// Durable state is engine-count independent: txn i wrote byte(i) to
	// line i of every page.
	var buf [1]byte
	for _, i := range []int{0, 7, 19} {
		r.Load(0, va(0, i*64), buf[:], 0)
		if buf[0] != byte(i) {
			t.Errorf("page 0 line %d = %d, want %d", i, buf[0], i)
		}
	}
}

func TestRedoAbortDropsSpeculation(t *testing.T) {
	env := testEnv(t, 1)
	r := NewRedo(env, DefaultRedoConfig())
	mapPage(env, 0)
	r.Begin(0, 0)
	r.Store(0, va(0, 0), []byte{0x42}, 0)
	r.Abort(0, 0)
	var buf [1]byte
	r.Load(0, va(0, 0), buf[:], 0)
	if buf[0] != 0 {
		t.Errorf("aborted redo data visible: %#x", buf[0])
	}
}

func TestEnvTranslateChargesWalkOnMiss(t *testing.T) {
	env := testEnv(t, 1)
	mapPage(env, 3)
	_, t1 := env.Translate(0, va(3, 0), 0)
	if t1 == 0 {
		t.Error("TLB miss did not charge a page walk")
	}
	_, t2 := env.Translate(0, va(3, 64), t1)
	if t2 != t1 {
		t.Errorf("TLB hit charged time: %d -> %d", t1, t2)
	}
	if env.Stats.TLBMisses != 1 || env.Stats.TLBHits != 1 {
		t.Errorf("tlb counters: %d misses %d hits", env.Stats.TLBMisses, env.Stats.TLBHits)
	}
}
