package logging_test

import (
	"testing"

	"repro/ssp"
)

// A warm UNDO-LOG or REDO-LOG machine commits without allocating, as an SSP
// one does (ssp.TestGlobalCommitAllocatesNothing): the write set keeps its
// storage across transactions, a log record's payload is framed on the
// stack, and REDO-LOG's write-back queue reuses its storage as its head
// advances. Each measured run is 16 transactions, because AllocsPerRun
// rounds its average down: a queue that reallocates every few commits
// reads at least 1 per run, not 0.
func TestCommitAllocatesNothing(t *testing.T) {
	for _, b := range []ssp.Backend{ssp.UndoLog, ssp.RedoLog} {
		m := ssp.MustNew(ssp.Config{Backend: b, Cores: 1})
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
		before := m.Stats().Commits
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
	}
}
