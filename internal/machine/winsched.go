package machine

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/engine"
)

// This file is the deterministic bounded-lag window scheduler
// (Config.TimeWindow > 0): the machinery that makes a multi-core Run
// reproducible. Free-running mode (TimeWindow == 0) never constructs it and
// is bit-for-bit the historical behaviour.
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
//     request queue (Core.BlockExternal). The scheduler does not wait for
//     external cores; they re-enter as ready when the event arrives, so a
//     machine with external cores is live but NOT deterministic (the event
//     arrival order is the host's).
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
	Window  engine.Cycles // configured W (0 = free-running, all else zero)
	Windows uint64        // lockstep window advances
	Grants  uint64        // execution-slot hand-offs
	// BarrierStalls counts op-boundary yields forced by the window barrier
	// (a core's clock reached the window end while others lagged).
	BarrierStalls uint64
	// HostWait is the total host time core goroutines spent blocked in the
	// scheduler — the window barrier's host-side cost. With N cores fully
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

// winSched is the scheduler instance; one per Machine when TimeWindow > 0.
type winSched struct {
	m *Machine
	w engine.Cycles

	mu        sync.Mutex
	active    bool          // inside a windowed Run
	pending   int           // cores that have not reached enter() yet
	running   int           // core holding the slot, -1 when none
	windowEnd engine.Cycles // exclusive upper bound of the current window
	state     []schedState
	grant     []chan struct{} // per-core slot token (cap 1)

	windows       uint64
	grants        uint64
	barrierStalls uint64
	hostWait      time.Duration
}

func newWinSched(m *Machine, w engine.Cycles) *winSched {
	s := &winSched{
		m:       m,
		w:       w,
		running: -1,
		state:   make([]schedState, m.cfg.Cores),
		grant:   make([]chan struct{}, m.cfg.Cores),
	}
	for i := range s.grant {
		s.grant[i] = make(chan struct{}, 1)
	}
	return s
}

// start arms the scheduler for one Run. Called while the machine is
// quiescent, before the core goroutines exist; no grant happens until every
// core has entered (the start barrier), so the first grant — like all later
// ones — is a function of simulated state only.
func (s *winSched) start() {
	s.active = true
	s.pending = len(s.state)
	s.running = -1
	for i := range s.state {
		s.state[i] = schedReady
	}
	min := s.m.clocks[0]
	for _, c := range s.m.clocks[1:] {
		if c < min {
			min = c
		}
	}
	s.windowEnd = (min/s.w + 1) * s.w
	s.windows, s.grants, s.barrierStalls, s.hostWait = 0, 0, 0, 0
}

// stop disarms the scheduler after the core goroutines join.
func (s *winSched) stop() {
	s.active = false
	for i, st := range s.state {
		if st != schedDone {
			panic(fmt.Sprintf("machine: windowed Run finished with core %d in scheduler state %d", i, st))
		}
	}
}

// enter is a core goroutine's first act inside Run: join the start barrier
// and wait for the first grant.
func (s *winSched) enter(id int) {
	s.mu.Lock()
	s.pending--
	s.parkLocked(id, schedReady)
	s.mu.Unlock()
}

// exit marks the core done and hands the slot on; the goroutine returns.
func (s *winSched) exit(id int) {
	s.mu.Lock()
	s.state[id] = schedDone
	if s.running == id {
		s.running = -1
	}
	s.scheduleLocked()
	s.mu.Unlock()
}

// yield is the window barrier: the running core's clock reached the window
// end, so it re-queues as ready and waits to be granted again (immediately,
// if it is still the earliest core once the window advances).
func (s *winSched) yield(id int) {
	s.mu.Lock()
	s.barrierStalls++
	s.parkLocked(id, schedReady)
	s.mu.Unlock()
}

// parkLocked records the core in state st, releases the slot, reschedules,
// and blocks until the scheduler grants the slot back. Caller holds mu on
// entry and regains it before return. Must run on core id's goroutine.
func (s *winSched) parkLocked(id int, st schedState) {
	s.state[id] = st
	if s.running == id {
		s.running = -1
	}
	s.scheduleLocked()
	s.mu.Unlock()
	t0 := time.Now()
	<-s.grant[id]
	s.mu.Lock()
	s.hostWait += time.Since(t0)
}

// scheduleLocked hands the free slot to the best grantable core, advancing
// the window when every ready core is past its end. Caller holds mu. No-op
// while a core runs or before the start barrier completes.
func (s *winSched) scheduleLocked() {
	if !s.active || s.running != -1 || s.pending > 0 {
		return
	}
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
			s.grantLocked(best)
			return
		}
		if !anyReady {
			// Everyone is parked or done. Lock waiters resume via their
			// holder's Release, externals via their host event.
			return
		}
		// Window barrier: advance to the window containing the earliest
		// ready clock (one advance even when idle gaps skip many windows).
		s.windowEnd = (minReady/s.w + 1) * s.w
		s.windows++
	}
}

// grantLocked hands the slot to core id. The token channel has capacity 1
// and at most one token is ever outstanding per core (a core parks only
// after consuming its previous grant).
func (s *winSched) grantLocked(id int) {
	s.state[id] = schedRunning
	s.running = id
	s.grants++
	s.grant[id] <- struct{}{}
}

// ---------------------------------------------------------------------------
// Lock integration (Core.Acquire/Release in windowed mode). The lock's
// queue and holder are guarded by the scheduler's mutex; host-level mutual
// exclusion needs no separate mutex because only one core executes at a
// time.

// lockAcquire takes l for core id, parking until the current holder hands
// it over. On return the core holds both the lock and the slot.
func (s *winSched) lockAcquire(id int, l *Lock) {
	s.mu.Lock()
	if l.holder < 0 {
		l.holder = id
	} else {
		l.q = append(l.q, id)
		s.parkLocked(id, schedLockWait)
	}
	s.mu.Unlock()
}

// lockRelease frees l at core id's current clock and hands it to the
// waiting core with the lowest (clock, index) pair, advancing that core's
// clock to the hand-off point so later grants order it by its true resume
// time. The chosen waiter becomes ready; it runs when the scheduler next
// grants it the slot.
func (s *winSched) lockRelease(id int, l *Lock) {
	s.mu.Lock()
	l.freeAt = s.m.clocks[id]
	if len(l.q) == 0 {
		l.holder = -1
	} else {
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
	s.mu.Unlock()
}

// external runs wait() with the core parked as host-blocked, then re-enters
// the scheduler. The parked goroutine is the one executing wait() — unlike
// the other parks, which block on the grant token immediately.
func (s *winSched) external(id int, wait func()) {
	s.mu.Lock()
	s.state[id] = schedExternal
	if s.running == id {
		s.running = -1
	}
	s.scheduleLocked()
	s.mu.Unlock()
	wait()
	s.mu.Lock()
	s.state[id] = schedReady
	s.scheduleLocked()
	s.mu.Unlock()
	t0 := time.Now()
	<-s.grant[id]
	s.mu.Lock()
	s.hostWait += time.Since(t0)
	s.mu.Unlock()
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
