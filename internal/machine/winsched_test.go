package machine

import (
	"fmt"
	"testing"

	"repro/internal/engine"
)

// winConfig returns a small windowed machine.
func winConfig(cores int, w engine.Cycles) Config {
	cfg := testConfig(SSP, cores)
	cfg.TimeWindow = w
	return cfg
}

// TestWindowedInterleavingDeterministic records the exact execution
// interleaving of a contended windowed run — legal only because the
// scheduler serialises cores onto one execution slot, so the shared trace
// slice is appended with happens-before edges — and requires two runs to
// produce the identical trace. This is the scheduler's core contract:
// the interleaving is a pure function of simulated state.
func TestWindowedInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		m := New(winConfig(4, 512))
		m.Heap().EnsureMapped(nil, 1, 8)
		var trace []string
		m.Run(func(c *Core) {
			for i := 0; i < 40; i++ {
				// Uneven compute so cores keep overtaking each other at
				// window boundaries.
				c.Compute(engine.Cycles(50 + 37*((c.ID()+i)%5)))
				c.Begin()
				c.Store64(heapVA(1+c.ID(), (i%64)*64), uint64(i))
				c.Commit()
				trace = append(trace, fmt.Sprintf("c%d@%d", c.ID(), c.Now()))
			}
		})
		return trace
	}
	t1, t2 := run(), run()
	if len(t1) != len(t2) {
		t.Fatalf("trace lengths diverged: %d vs %d", len(t1), len(t2))
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("interleaving diverged at step %d: %q vs %q", i, t1[i], t2[i])
		}
	}
}

// TestWindowedLockHandoffOrder asserts the scheduler's lock protocol:
// when several cores queue on one Lock, release hands it to the waiter
// with the smallest (resume clock, core index), so the acquisition order
// is deterministic and simulated-time sorted — not host mutex order.
func TestWindowedLockHandoffOrder(t *testing.T) {
	run := func() []int {
		m := New(winConfig(4, 1024))
		m.Heap().EnsureMapped(nil, 1, 4)
		l := m.NewLock()
		start := m.MaxClock()
		var order []int
		m.Run(func(c *Core) {
			// Staggered arrival: core i asks for the lock at start+10*i,
			// then holds it long enough that everyone else queues.
			c.SetNow(start + engine.Cycles(10*c.ID()))
			for i := 0; i < 5; i++ {
				c.Acquire(l)
				order = append(order, c.ID())
				c.Compute(300)
				c.Release(l)
				c.Compute(engine.Cycles(20 + 13*c.ID()))
			}
		})
		return order
	}
	o1, o2 := run(), run()
	if len(o1) != 20 || len(o2) != 20 {
		t.Fatalf("expected 20 acquisitions per run, got %d and %d", len(o1), len(o2))
	}
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatalf("hand-off order diverged at step %d: %v vs %v", i, o1, o2)
		}
	}
	if o1[0] != 0 {
		t.Fatalf("first acquisition went to core %d, want core 0 (earliest clock)", o1[0])
	}
}

// TestWindowStats checks the reporting path: a windowed run exposes its
// window size and non-zero scheduling counters through Machine.WindowStats,
// and a machine configured with TimeWindow 0 runs DefaultTimeWindow.
func TestWindowStats(t *testing.T) {
	m := New(winConfig(2, 2048))
	m.Heap().EnsureMapped(nil, 1, 4)
	m.Run(func(c *Core) {
		for i := 0; i < 20; i++ {
			c.Begin()
			c.Store64(heapVA(1+c.ID(), (i%64)*64), uint64(i))
			c.Commit()
			c.Compute(500)
		}
	})
	ws := m.WindowStats()
	if ws.Window != 2048 {
		t.Fatalf("WindowStats.Window = %d, want 2048", ws.Window)
	}
	if ws.Windows == 0 || ws.Grants == 0 {
		t.Fatalf("expected scheduling activity, got %+v", ws)
	}

	def := New(testConfig(SSP, 2))
	def.Heap().EnsureMapped(nil, 1, 2)
	def.Run(func(c *Core) {
		c.Begin()
		c.Store64(heapVA(1+c.ID(), 0), 1)
		c.Commit()
	})
	if got := def.WindowStats(); got.Window != DefaultTimeWindow || got.Grants == 0 {
		t.Fatalf("TimeWindow 0 machine reported %+v, want window %d and grants", got, DefaultTimeWindow)
	}
}
