package machine

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/engine"
)

// This file is the deterministic bounded-lag window scheduler of every
// Machine.Run (window Config.TimeWindow): the machinery that makes a
// multi-core Run reproducible.
//
// Model. Cores advance in lockstep windows of W simulated cycles. Within a
// window exactly ONE core executes at a time: the scheduler owns a single
// execution slot and grants it to the schedulable core with the lowest
// (clock, core-index) pair whose clock is still inside the current window.
// A core holds the slot across operations and yields at the next operation
// boundary once its clock reaches the window end; when no grantable core
// remains below the window end, the window advances to the earliest ready
// core's window and scheduling resumes. Every shared-hardware interaction —
// memory-bank and bus occupancy bookings, row-buffer transitions, cache
// ownership transfers, journal appends, lock hand-off, epoch age checks,
// TID/version allocation — therefore happens in one global order
// that is a pure function of the simulated state, never of the host
// schedule: two runs with the same seed and core count produce byte-
// identical Stats.
//
// Mechanism. Each core's fn runs as a coroutine (iter.Pull). A drive loop
// picks the next core and resumes it; the core runs until it parks, and a
// park is a coroutine switch back to the drive loop. A grant therefore costs
// two goroutine switches on one host thread — no channel send, no wake-up
// of a sleeping thread — and the slot needs no lock: the switch orders each
// core after the previous holder.
//
// The cost is host parallelism: a windowed Run uses one core's worth of
// host CPU regardless of the simulated core count. Simulated timing — the
// speedup curves, contention, barrier waits — is unaffected; W only bounds
// how far one core's bookings may run ahead of the laggard's clock
// (smaller W = finer-grained interleaving, more slot hand-offs).
//
// Blocking. A core that must wait on ANOTHER core's progress cannot simply
// block in host time — it holds the only execution slot. Instead it parks
// in one of two states and releases the slot:
//
//   - lock wait: Core.Acquire on a held Lock; the releaser hands the lock
//     to the waiting core with the lowest (clock, index) pair.
//   - external: a core blocked on a host-side event — a server worker's
//     request queue (Core.BlockExternal). The core's wait func runs on a
//     helper goroutine of its own while the core's coroutine is parked.
//     When wait returns, the helper marks the core ready and, if no
//     goroutine is driving, runs the drive loop itself: the drive loop moves
//     between goroutines, and a request costs one host wake-up, the
//     helper's, on arrival. The scheduler does not wait for external cores,
//     so a machine with external cores is live but NOT deterministic (the
//     event arrival order is the host's).
//
// Run's own goroutine drives from the start until no core is ready, then
// waits for whichever goroutine drives the last core to its end.
//
// Backends never park: nothing below the Core API blocks on another core.

// schedState is one core's scheduler state.
type schedState uint8

const (
	schedReady    schedState = iota // wants the slot
	schedRunning                    // holds the slot (at most one core)
	schedLockWait                   // parked on a Lock's queue
	schedExternal                   // blocked on a host-side event
	schedDone                       // returned from Run's fn
)

// WindowStats describes one windowed Run's scheduling activity. Counters
// are deterministic (a pure function of the simulated execution); HostWait
// is host time and reported only — it never feeds back into scheduling or
// Stats.
type WindowStats struct {
	Window  engine.Cycles // the scheduler's window W
	Windows uint64        // lockstep window advances
	Grants  uint64        // execution-slot hand-offs
	// BarrierStalls counts op-boundary yields forced by the window barrier
	// (a core's clock reached the window end while others lagged).
	BarrierStalls uint64
	// HostWait is the total host time cores spent parked and ready (or
	// queued on a Lock) before the scheduler resumed them — the window
	// barrier's host-side cost. A BlockExternal wait itself is not counted,
	// only the time from its end to the resume. With N cores fully
	// serialised it approaches (N-1)/N of N*wall; its growth with W picks
	// the default window size (see `sspbench -exp scale`).
	HostWait time.Duration
}

// BarrierShare returns HostWait as a fraction of cores*wall — the share of
// aggregate host core-time spent waiting on the scheduler.
func (w WindowStats) BarrierShare(cores int, wall time.Duration) float64 {
	if wall <= 0 || cores <= 0 {
		return 0
	}
	return float64(w.HostWait) / (float64(cores) * float64(wall))
}

// winSched is the scheduler instance; one per Machine.
//
// The fields above mu belong to the slot: only the drive loop and the
// running core touch them, and the coroutine switches order those accesses.
type winSched struct {
	m *Machine
	w engine.Cycles

	active    bool                      // inside a Run
	windowEnd engine.Cycles             // exclusive upper bound of the current window
	resume    []func() (struct{}, bool) // per core: run it until it parks or returns
	park      []func(struct{}) bool     // per core, on its coroutine: back to the drive loop
	waits     []chan func()             // per core: its helper's wait funcs, nil until BlockExternal

	windows       uint64
	grants        uint64
	barrierStalls uint64
	hostWait      time.Duration

	// mu guards what helper goroutines share with the drive loop.
	mu       sync.Mutex
	state    []schedState
	readyAt  []time.Time // when a helper marked an external core ready
	driving  bool        // some goroutine is in drive
	done     int         // cores whose fn returned
	fault    string      // a core's panic, with its stack; ends the Run
	finished chan struct{}
}

func newWinSched(m *Machine, w engine.Cycles) *winSched {
	n := m.cfg.Cores
	return &winSched{
		m:        m,
		w:        w,
		resume:   make([]func() (struct{}, bool), n),
		park:     make([]func(struct{}) bool, n),
		waits:    make([]chan func(), n),
		state:    make([]schedState, n),
		readyAt:  make([]time.Time, n),
		finished: make(chan struct{}, 1),
	}
}

// run executes fn once per core, each as a coroutine, and returns when every
// invocation has returned, or with the fault text of the first that
// panicked. Called while the machine is quiescent. Every core is ready
// before the first grant, so the first grant — like all later ones — is a
// function of simulated state only.
func (s *winSched) run(fn func(c *Core)) (fault string) {
	s.active = true
	for i := range s.state {
		s.state[i] = schedReady
	}
	s.done, s.fault, s.driving = 0, "", true
	min := s.m.clocks[0]
	for _, c := range s.m.clocks[1:] {
		if c < min {
			min = c
		}
	}
	s.windowEnd = (min/s.w + 1) * s.w
	s.windows, s.grants, s.barrierStalls, s.hostWait = 0, 0, 0, 0
	for _, c := range s.m.cores {
		s.resume[c.id], _ = iter.Pull(s.coroutine(c, fn))
	}

	if !s.drive() {
		<-s.finished
	}

	s.active = false
	for id, w := range s.waits {
		if w != nil {
			close(w)
			s.waits[id] = nil
		}
	}
	clear(s.resume)
	clear(s.park)
	// After a fault the other cores stay parked where they were; their
	// coroutines are abandoned, and the machine must not run again.
	return s.fault
}

// coroutine is core c's body: fn(c), counted done when it returns. A panic
// is recovered here, on the core's own stack, and becomes the Run's fault.
func (s *winSched) coroutine(c *Core, fn func(c *Core)) iter.Seq[struct{}] {
	return func(park func(struct{}) bool) {
		s.park[c.id] = park
		defer func() {
			p := recover()
			s.mu.Lock()
			if p != nil {
				s.fault = fmt.Sprintf("machine: core %d panicked in Run: %v\n\n%s", c.id, p, debug.Stack())
			}
			s.state[c.id] = schedDone
			s.done++
			s.mu.Unlock()
		}()
		fn(c)
	}
}

// drive resumes the next core until none is ready, and reports whether the
// Run is over (every core done, or a fault). The caller has set driving;
// drive clears it.
func (s *winSched) drive() (over bool) {
	s.mu.Lock()
	for s.fault == "" {
		id := s.grantLocked()
		if id < 0 {
			break
		}
		s.mu.Unlock()
		s.resume[id]()
		s.mu.Lock()
	}
	s.driving = false
	over = s.fault != "" || s.done == len(s.state)
	s.mu.Unlock()
	return over
}

// grantLocked picks the best grantable core and marks it running, advancing
// the window when every ready core is past its end; -1 when no core is
// ready. Caller holds mu and no core runs.
func (s *winSched) grantLocked() int {
	for {
		best := -1
		anyReady := false
		var bestClock, minReady engine.Cycles
		for i, st := range s.state {
			if st != schedReady {
				continue
			}
			c := s.m.clocks[i]
			if !anyReady || c < minReady {
				anyReady, minReady = true, c
			}
			if c >= s.windowEnd {
				continue
			}
			// Ascending index scan: ties on clock keep the lower index.
			if best == -1 || c < bestClock {
				best, bestClock = i, c
			}
		}
		if best != -1 {
			s.state[best] = schedRunning
			s.grants++
			return best
		}
		if !anyReady {
			// Everyone is parked or done. Lock waiters resume via their
			// holder's Release, externals via their host event.
			return -1
		}
		// Window barrier: advance to the window containing the earliest
		// ready clock (one advance even when idle gaps skip many windows).
		s.windowEnd = (minReady/s.w + 1) * s.w
		s.windows++
	}
}

// suspend parks the running core id in state st: its coroutine switches
// back to the drive loop and returns when the core is granted again. Must
// run on core id's coroutine.
func (s *winSched) suspend(id int, st schedState) {
	s.state[id] = st
	t0 := time.Now()
	s.park[id](struct{}{})
	s.hostWait += time.Since(t0)
}

// yield is the window barrier: the running core's clock reached the window
// end, so it re-queues as ready (and runs again at once if it is still the
// earliest core once the window advances).
func (s *winSched) yield(id int) {
	s.barrierStalls++
	s.suspend(id, schedReady)
}

// ---------------------------------------------------------------------------
// Lock integration (Core.Acquire/Release inside Run). Only the core holding
// the slot touches a lock's queue and holder, so they need no host mutex.

// lockAcquire takes l for core id, parking until the current holder hands
// it over. On return the core holds both the lock and the slot.
func (s *winSched) lockAcquire(id int, l *Lock) {
	if l.holder < 0 {
		l.holder = id
		return
	}
	l.q = append(l.q, id)
	s.suspend(id, schedLockWait)
}

// lockRelease frees l at core id's current clock and hands it to the
// waiting core with the lowest (clock, index) pair, advancing that core's
// clock to the hand-off point so later grants order it by its true resume
// time. The chosen waiter becomes ready; it runs when the scheduler next
// grants it the slot.
func (s *winSched) lockRelease(id int, l *Lock) {
	l.freeAt = s.m.clocks[id]
	if len(l.q) == 0 {
		l.holder = -1
		return
	}
	best := 0
	for i := 1; i < len(l.q); i++ {
		ci, cb := l.q[i], l.q[best]
		if s.m.clocks[ci] < s.m.clocks[cb] ||
			(s.m.clocks[ci] == s.m.clocks[cb] && ci < cb) {
			best = i
		}
	}
	w := l.q[best]
	l.q = append(l.q[:best], l.q[best+1:]...)
	l.holder = w
	if s.m.clocks[w] < l.freeAt {
		s.m.clocks[w] = l.freeAt
	}
	s.state[w] = schedReady
}

// external parks core id as host-blocked while its helper goroutine runs
// wait(), and returns once the core is granted again after wait returned.
func (s *winSched) external(id int, wait func()) {
	if s.waits[id] == nil {
		s.waits[id] = make(chan func(), 1)
		go s.helper(id, s.waits[id])
	}
	s.state[id] = schedExternal
	// Capacity 1 suffices: the helper takes this wait before the core can
	// be granted again, so at most one is ever queued.
	s.waits[id] <- wait
	s.park[id](struct{}{})
	s.hostWait += time.Since(s.readyAt[id])
}

// helper runs core id's external waits for one Run, until Run closes waits.
// After each wait it makes the core ready and drives, unless another
// goroutine already does (that one grants the core in turn).
func (s *winSched) helper(id int, waits <-chan func()) {
	for wait := range waits {
		wait()
		s.mu.Lock()
		s.state[id] = schedReady
		s.readyAt[id] = time.Now()
		drive := !s.driving && s.fault == ""
		if drive {
			s.driving = true
		}
		s.mu.Unlock()
		if drive && s.drive() {
			s.finished <- struct{}{}
		}
	}
}

// snapshot returns the last Run's stats. Quiescent-only.
func (s *winSched) snapshot() WindowStats {
	return WindowStats{
		Window:        s.w,
		Windows:       s.windows,
		Grants:        s.grants,
		BarrierStalls: s.barrierStalls,
		HostWait:      s.hostWait,
	}
}
