package logging_test

import (
	"testing"

	"repro/ssp"
)

// A warm UNDO-LOG or REDO-LOG machine commits without allocating, as an SSP
// one does (ssp.TestGlobalCommitAllocatesNothing), and so does SSP's
// software fall-back path, which writes the same per-core log: at
// WSBEntries 4 every 8-page transaction overflows the write-set buffer and
// commits through the fall-back. The write set keeps its storage across
// transactions, a log record's payload is framed on the stack, the
// fall-back's pinned pages are a reused slice, and REDO-LOG's write-back
// queue reuses its storage as its head advances. Each measured run is 16
// transactions, because AllocsPerRun rounds its average down: a queue that
// reallocates every few commits reads at least 1 per run, not 0.
func TestCommitAllocatesNothing(t *testing.T) {
	for _, cfg := range []ssp.Config{
		{Backend: ssp.UndoLog, Cores: 1},
		{Backend: ssp.RedoLog, Cores: 1},
		{Backend: ssp.SSP, Cores: 1, WSBEntries: 4},
	} {
		b := cfg.Backend
		m := ssp.MustNew(cfg)
		m.Heap().EnsureMapped(nil, 1, 8)
		c := m.Core(0)
		var n uint64
		txn := func() {
			c.Begin()
			for p := uint64(1); p <= 8; p++ {
				c.Store64(ssp.HeapBase+p*ssp.PageBytes+(n+p)%64*ssp.LineBytes, n)
			}
			c.Commit()
			n++
		}
		for range 2000 {
			txn()
		}
		before, fellBack := m.Stats().Commits, m.Stats().FallbackTxns
		if a := testing.AllocsPerRun(100, func() {
			for range 16 {
				txn()
			}
		}); a != 0 {
			t.Errorf("%v: %.2f allocations per 16 commits", b, a)
		}
		if got := m.Stats().Commits - before; got != 101*16 {
			t.Fatalf("%v: %d of %d transactions committed", b, got, 101*16)
		}
		if got := m.Stats().FallbackTxns - fellBack; b == ssp.SSP && got != 101*16 {
			t.Fatalf("%v: %d of %d transactions took the fall-back path", b, got, 101*16)
		}
	}
}
