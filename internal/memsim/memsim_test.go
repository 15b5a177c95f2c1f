package memsim

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/stats"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.DRAMBytes = 1 << 20
	cfg.NVRAMBytes = 1 << 20
	return cfg
}

func newMem(t *testing.T) (*Memory, *stats.Stats) {
	t.Helper()
	st := &stats.Stats{}
	return New(testConfig(), st), st
}

func line(b byte) []byte {
	d := make([]byte, LineBytes)
	for i := range d {
		d[i] = b
	}
	return d
}

func TestAddressHelpers(t *testing.T) {
	if LineAddr(0x1234) != 0x1200 {
		t.Errorf("LineAddr wrong: %#x", LineAddr(0x1234))
	}
	if PageAddr(0x12345) != 0x12000 {
		t.Errorf("PageAddr wrong: %#x", PageAddr(0x12345))
	}
	if LineIndex(0x12345) != (0x345 >> 6) {
		t.Errorf("LineIndex wrong: %d", LineIndex(0x12345))
	}
	if LinesPerPage != 64 {
		t.Errorf("LinesPerPage = %d", LinesPerPage)
	}
}

func TestIsNVRAM(t *testing.T) {
	m, _ := newMem(t)
	if m.IsNVRAM(0) {
		t.Error("DRAM address classified as NVRAM")
	}
	base := m.Config().NVRAMBase
	if !m.IsNVRAM(base) || !m.IsNVRAM(base+1000) {
		t.Error("NVRAM address not classified")
	}
	if m.IsNVRAM(base + PAddr(m.Config().NVRAMBytes)) {
		t.Error("address past NVRAM classified as NVRAM")
	}
	if !m.Contains(0) || !m.Contains(base) {
		t.Error("Contains wrong")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m, _ := newMem(t)
	base := m.Config().NVRAMBase
	data := line(0xAB)
	m.WriteLine(base+128, data, 0, stats.CatData)
	buf := make([]byte, LineBytes)
	m.ReadLine(base+128, buf, 0)
	if !bytes.Equal(buf, data) {
		t.Error("read did not return written data")
	}
	// DRAM too.
	m.WriteLine(256, line(0x5A), 0, stats.CatData)
	m.ReadLine(256, buf, 0)
	if buf[0] != 0x5A {
		t.Error("DRAM round trip failed")
	}
}

func TestWriteBytesSubLine(t *testing.T) {
	m, st := newMem(t)
	base := m.Config().NVRAMBase
	m.WriteBytes(base+8, []byte{1, 2, 3, 4, 5, 6, 7, 8}, 0, stats.CatControl)
	buf := make([]byte, 8)
	m.Peek(base+8, buf)
	if buf[0] != 1 || buf[7] != 8 {
		t.Error("sub-line write lost")
	}
	if st.NVRAMWriteBytes[stats.CatControl] != 8 {
		t.Errorf("control bytes = %d, want 8", st.NVRAMWriteBytes[stats.CatControl])
	}
	if st.NVRAMWriteLines != 1 {
		t.Errorf("write lines = %d, want 1", st.NVRAMWriteLines)
	}
}

func TestWriteBytesCrossLinePanics(t *testing.T) {
	m, _ := newMem(t)
	defer func() {
		if recover() == nil {
			t.Error("cross-line WriteBytes should panic")
		}
	}()
	m.WriteBytes(m.Config().NVRAMBase+60, make([]byte, 16), 0, stats.CatData)
}

func TestLatencies(t *testing.T) {
	m, _ := newMem(t)
	cfg := m.Config()
	base := cfg.NVRAMBase
	buf := make([]byte, LineBytes)

	// First access: row miss, full latency.
	done := m.ReadLine(base, buf, 0)
	wantRead := engine.NSToCycles(cfg.NVRAMRead, cfg.FreqGHz)
	if done != wantRead {
		t.Errorf("NVRAM read latency %d, want %d", done, wantRead)
	}

	m2, _ := newMem(t)
	done = m2.WriteLine(base, line(1), 0, stats.CatData)
	wantWrite := engine.NSToCycles(cfg.NVRAMWrite, cfg.FreqGHz)
	if done != wantWrite {
		t.Errorf("NVRAM write latency %d, want %d", done, wantWrite)
	}

	m3, _ := newMem(t)
	done = m3.ReadLine(64, buf, 0) // DRAM
	wantDRAM := engine.NSToCycles(cfg.DRAMRead, cfg.FreqGHz)
	if done != wantDRAM {
		t.Errorf("DRAM read latency %d, want %d", done, wantDRAM)
	}
}

func TestRowBufferHitDiscount(t *testing.T) {
	m, st := newMem(t)
	cfg := m.Config()
	base := cfg.NVRAMBase
	buf := make([]byte, LineBytes)
	m.ReadLine(base, buf, 0) // opens the row
	if st.RowMisses != 1 {
		t.Fatalf("row misses = %d", st.RowMisses)
	}
	// Same row, next line: should be a hit with discounted latency.
	start := engine.Cycles(100000)
	done := m.ReadLine(base+64, buf, start)
	if st.RowHits != 1 {
		t.Fatalf("row hits = %d", st.RowHits)
	}
	full := engine.NSToCycles(cfg.NVRAMRead, cfg.FreqGHz)
	want := start + engine.Cycles(float64(full)*cfg.RowHitFrac)
	if done != want {
		t.Errorf("row hit latency: done=%d want=%d", done, want)
	}
}

func TestBankContention(t *testing.T) {
	m, _ := newMem(t)
	cfg := m.Config()
	base := cfg.NVRAMBase
	buf := make([]byte, LineBytes)
	// Two back-to-back accesses to the same bank+row: second queues behind
	// the first.
	d1 := m.ReadLine(base, buf, 0)
	d2 := m.ReadLine(base, buf, 0)
	if d2 <= d1 {
		t.Errorf("second access (%d) should finish after first (%d)", d2, d1)
	}
	// Accesses to different banks at the same time overlap (both start at
	// 0, finishing much earlier than serialised).
	m2, _ := newMem(t)
	rowBytes := PAddr(cfg.NVRAMRow)
	a := m2.ReadLine(base, buf, 0)
	b := m2.ReadLine(base+rowBytes, buf, 0) // next bank
	if b >= a+a {
		t.Errorf("different banks did not overlap: a=%d b=%d", a, b)
	}
}

func TestPowerOffDropsWrites(t *testing.T) {
	m, _ := newMem(t)
	base := m.Config().NVRAMBase
	m.WriteLine(base, line(0x11), 0, stats.CatData)
	m.PowerOff()
	if !m.PoweredOff() {
		t.Fatal("not powered off")
	}
	m.WriteLine(base, line(0x22), 0, stats.CatData)
	buf := make([]byte, LineBytes)
	m.Peek(base, buf)
	if buf[0] != 0x11 {
		t.Errorf("write after power-off landed: %#x", buf[0])
	}
	// DRAM writes are volatile anyway; they still land (nothing depends on
	// them post-crash).
	m.PowerOn()
	if m.PoweredOff() {
		t.Error("PowerOn did not clear state")
	}
}

func TestWriteTrap(t *testing.T) {
	m, _ := newMem(t)
	base := m.Config().NVRAMBase
	fired := false
	m.OnPowerOff(func() { fired = true })
	m.SetWriteTrap(2) // two writes land, the third is lost
	m.WriteLine(base, line(1), 0, stats.CatData)
	m.WriteLine(base+64, line(2), 0, stats.CatData)
	if m.PoweredOff() {
		t.Fatal("trap fired early")
	}
	m.WriteLine(base+128, line(3), 0, stats.CatData)
	if !m.PoweredOff() || !fired {
		t.Fatal("trap did not fire")
	}
	buf := make([]byte, LineBytes)
	m.Peek(base, buf)
	if buf[0] != 1 {
		t.Error("first write lost")
	}
	m.Peek(base+128, buf)
	if buf[0] != 0 {
		t.Error("trapped write landed")
	}
}

func TestWriteTrapZeroLosesNextWrite(t *testing.T) {
	m, _ := newMem(t)
	base := m.Config().NVRAMBase
	m.SetWriteTrap(0)
	m.WriteLine(base, line(9), 0, stats.CatData)
	buf := make([]byte, LineBytes)
	m.Peek(base, buf)
	if buf[0] != 0 {
		t.Error("write with trap 0 landed")
	}
}

func TestTrapDisarm(t *testing.T) {
	m, _ := newMem(t)
	base := m.Config().NVRAMBase
	m.SetWriteTrap(5)
	m.SetWriteTrap(-1)
	for i := 0; i < 10; i++ {
		m.WriteLine(base+PAddr(i*64), line(byte(i)), 0, stats.CatData)
	}
	if m.PoweredOff() {
		t.Error("disarmed trap fired")
	}
}

func TestDRAMWritesIgnoreTrap(t *testing.T) {
	m, _ := newMem(t)
	m.SetWriteTrap(0)
	m.WriteLine(128, line(7), 0, stats.CatData) // DRAM
	if m.PoweredOff() {
		t.Error("DRAM write consumed the NVRAM trap")
	}
}

func TestNVRAMImageAndRestore(t *testing.T) {
	m, _ := newMem(t)
	base := m.Config().NVRAMBase
	m.WriteLine(base+64, line(0x77), 0, stats.CatData)
	img := m.NVRAMImage()

	st2 := &stats.Stats{}
	m2, err := NewFromImage(testConfig(), st2, img)
	if err != nil {
		t.Fatalf("NewFromImage: %v", err)
	}
	buf := make([]byte, LineBytes)
	m2.Peek(base+64, buf)
	if buf[0] != 0x77 {
		t.Error("image did not carry durable data")
	}
}

func TestNewFromImageLengthMismatch(t *testing.T) {
	cfg := testConfig()
	st := &stats.Stats{}
	for _, n := range []int{0, int(cfg.NVRAMBytes) - 1, int(cfg.NVRAMBytes) + PageBytes} {
		if _, err := NewFromImage(cfg, st, ImageFromBytes(make([]byte, n))); err == nil {
			t.Errorf("image of %d bytes accepted for NVRAMBytes=%d", n, cfg.NVRAMBytes)
		}
	}
	if _, err := NewFromImage(cfg, st, ImageFromBytes(make([]byte, cfg.NVRAMBytes))); err != nil {
		t.Errorf("exact-size image rejected: %v", err)
	}
}

func TestCategoryAccounting(t *testing.T) {
	m, st := newMem(t)
	base := m.Config().NVRAMBase
	m.WriteLine(base, line(1), 0, stats.CatData)
	m.WriteLine(base+64, line(1), 0, stats.CatUndoLog)
	m.WriteLine(base+128, line(1), 0, stats.CatMetaJournal)
	m.WriteBytes(base+192, []byte{1, 2, 3, 4, 5, 6, 7, 8}, 0, stats.CatControl)
	if st.WriteBytes(stats.CatData) != 64 ||
		st.WriteBytes(stats.CatUndoLog) != 64 ||
		st.WriteBytes(stats.CatMetaJournal) != 64 ||
		st.WriteBytes(stats.CatControl) != 8 {
		t.Errorf("category accounting wrong: %+v", st.NVRAMWriteBytes)
	}
	if st.TotalWriteBytes() != 64*3+8 {
		t.Errorf("total = %d", st.TotalWriteBytes())
	}
	if st.NVRAMWriteLines != 4 {
		t.Errorf("write lines = %d", st.NVRAMWriteLines)
	}
}

func TestResetTiming(t *testing.T) {
	m, _ := newMem(t)
	base := m.Config().NVRAMBase
	buf := make([]byte, LineBytes)
	m.ReadLine(base, buf, 0)
	m.ResetTiming()
	// After a reset, time can restart at 0 without queueing behind the old
	// timeline.
	done := m.ReadLine(base+PAddr(m.Config().NVRAMRow), buf, 0)
	want := engine.NSToCycles(m.Config().NVRAMRead, m.Config().FreqGHz)
	if done != want {
		t.Errorf("post-reset access queued: %d want %d", done, want)
	}
}

// Property: durable contents always reflect the last non-dropped write.
func TestWriteReadProperty(t *testing.T) {
	f := func(seed uint64) bool {
		st := &stats.Stats{}
		m := New(testConfig(), st)
		base := m.Config().NVRAMBase
		ref := make(map[PAddr]byte)
		rng := engine.NewRNG(seed)
		for i := 0; i < 300; i++ {
			la := base + PAddr(rng.Intn(64))*LineBytes
			b := byte(rng.Intn(256))
			m.WriteLine(la, line(b), 0, stats.CatData)
			ref[la] = b
		}
		buf := make([]byte, LineBytes)
		for la, b := range ref {
			m.Peek(la, buf)
			if buf[0] != b || buf[63] != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
