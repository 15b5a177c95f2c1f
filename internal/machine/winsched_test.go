package machine

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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

// TestWindowHandoffAllocatesNothing guards the slot hand-off's host cost: a
// park and a grant are coroutine switches that allocate nothing, so a Run
// whose cores cross ten times more windows allocates no more than a short
// one.
func TestWindowHandoffAllocatesNothing(t *testing.T) {
	m := New(winConfig(4, 512))
	run := func(windows int) func() {
		return func() {
			m.Run(func(c *Core) {
				for i := 0; i < windows; i++ {
					c.Compute(512)
				}
			})
		}
	}
	short := testing.AllocsPerRun(5, run(50))
	shortGrants := m.WindowStats().Grants
	long := testing.AllocsPerRun(5, run(500))
	longGrants := m.WindowStats().Grants
	if longGrants < 9*shortGrants {
		t.Fatalf("grants %d (long) vs %d (short): the long run should hand off ~10x more", longGrants, shortGrants)
	}
	if long > short {
		t.Fatalf("a Run with %d grants allocated %.0f times, one with %d grants %.0f: the hand-off allocates",
			longGrants, long, shortGrants, short)
	}
}

// runWithin runs m.Run(fn) and fails the test if it does not return in time
// (a lost wake-up parks every core for good). It returns what Run panicked
// with, or nil.
func runWithin(t *testing.T, m *Machine, fn func(c *Core)) (panicked any) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		m.Run(fn)
	}()
	select {
	case p := <-done:
		return p
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return")
		return nil
	}
}

// TestWindowedAllCoresExternal parks every core on a host event at once and
// releases them from a foreign goroutine in reverse core order, several
// rounds over: with no core left to drive, each release's helper goroutine
// must pick the scheduling up, and every core must finish.
func TestWindowedAllCoresExternal(t *testing.T) {
	const cores, rounds = 4, 5
	m := New(winConfig(cores, 512))
	m.Heap().EnsureMapped(nil, 1, cores)
	var gates [cores]chan struct{}
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	var waiting atomic.Int32
	go func() {
		for r := 0; r < rounds; r++ {
			for waiting.Load() != cores {
				time.Sleep(100 * time.Microsecond)
			}
			waiting.Store(0)
			for i := cores - 1; i >= 0; i-- {
				gates[i] <- struct{}{}
			}
		}
	}()
	var finished [cores]int
	if p := runWithin(t, m, func(c *Core) {
		wait := func() {
			waiting.Add(1)
			<-gates[c.ID()]
		}
		for r := 0; r < rounds; r++ {
			c.Begin()
			c.Store64(heapVA(1+c.ID(), 0), uint64(r))
			c.Commit()
			c.Compute(engine.Cycles(700 + 90*c.ID()))
			c.BlockExternal(wait)
		}
		finished[c.ID()] = rounds
	}); p != nil {
		t.Fatalf("Run panicked: %v", p)
	}
	for i, n := range finished {
		if n != rounds {
			t.Fatalf("core %d did not finish", i)
		}
	}
}

// TestWindowedLockWaitersWithExternalCores mixes the two parks: core 0
// blocks on a host event while holding a Lock that core 1 queues on, and
// cores 2 and 3 block on host events too, so for a while no core is ready
// and only a foreign goroutine's releases can restart the Run.
func TestWindowedLockWaitersWithExternalCores(t *testing.T) {
	const cores, rounds = 4, 5
	m := New(winConfig(cores, 512))
	l := m.NewLock()
	var gates [cores]chan struct{}
	for i := range gates {
		gates[i] = make(chan struct{})
	}
	var waiting atomic.Int32
	go func() {
		for r := 0; r < rounds; r++ {
			for waiting.Load() != cores-1 {
				time.Sleep(100 * time.Microsecond)
			}
			waiting.Store(0)
			gates[3] <- struct{}{}
			gates[2] <- struct{}{}
			time.Sleep(time.Millisecond)
			gates[0] <- struct{}{}
		}
	}()
	var order []int
	if p := runWithin(t, m, func(c *Core) {
		wait := func() {
			waiting.Add(1)
			<-gates[c.ID()]
		}
		for r := 0; r < rounds; r++ {
			switch c.ID() {
			case 0:
				c.Acquire(l)
				order = append(order, 0)
				c.BlockExternal(wait)
				c.Compute(200)
				c.Release(l)
			case 1:
				c.Compute(100)
				c.Acquire(l)
				order = append(order, 1)
				c.Release(l)
			default:
				c.BlockExternal(wait)
			}
			c.Compute(1000)
		}
	}); p != nil {
		t.Fatalf("Run panicked: %v", p)
	}
	if len(order) != 2*rounds {
		t.Fatalf("lock acquisitions %v, want %d", order, 2*rounds)
	}
}

// TestRunPropagatesCorePanic: a panic in one core's fn ends the Run with a
// panic naming the core and the value, instead of leaving Run waiting on
// cores that can no longer be scheduled — whether Run's goroutine or a
// helper goroutine is driving, and with other cores queued on a Lock the
// panicking core holds.
func TestRunPropagatesCorePanic(t *testing.T) {
	for _, tc := range []struct {
		name     string
		external bool
	}{{"driven by Run", false}, {"driven by a helper", true}} {
		t.Run(tc.name, func(t *testing.T) {
			m := New(winConfig(4, 512))
			l := m.NewLock()
			p := runWithin(t, m, func(c *Core) {
				if tc.external {
					c.BlockExternal(func() { time.Sleep(time.Millisecond) })
				}
				c.Acquire(l)
				if c.ID() == 2 {
					panic("boom")
				}
				c.Compute(600)
				c.Release(l)
			})
			msg, _ := p.(string)
			if !strings.Contains(msg, "core 2") || !strings.Contains(msg, "boom") {
				t.Fatalf("Run panicked with %v, want core 2's boom", p)
			}
		})
	}
}
