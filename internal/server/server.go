// Package server is the network front end of the simulated SSP machine: a
// line-oriented, RESP-style TCP server exposing a sharded ssp/kv cache over
// GET/SET/DEL/SYNC/STATS, the "millions of users" deployment shape the
// closed-loop drivers cannot model.
//
// Threading model. The machine's one-goroutine-per-Core contract does not
// allow a goroutine per connection to touch cores directly, so the server
// splits the two populations: N connection handlers (one goroutine per
// accepted conn) parse requests and enqueue them, and exactly Cores worker
// goroutines — running inside Machine.Run, one per ssp.Core — drain
// per-core queues and execute operations. Keys are routed to core
// key mod Cores; each worker owns one kv.Cache shard allocated from its own
// arena, so no ssp.Lock is needed: a shard is only ever touched by its
// worker's goroutine, and cores couple only through the simulated shared
// hardware (channels, journal shards), exactly like workload.RunParallel.
//
// Acknowledgment semantics. A sync server acks SET/DEL after Commit — the
// journal leg is durable when the client sees the reply. A relaxed server
// (Config.Relaxed, requires Machine.DurabilityEpoch > 0) acks after
// CommitRelaxed: the reply races the epoch seal, and a crash can lose the
// acked write until a SYNC (routed to core 0, whose Sync hardens every
// shard) or the epoch age bound hardens it. Per-op acknowledgment latency is
// recorded in host nanoseconds from enqueue to ack into per-worker
// histograms (merged on STATS) — host time measures real queueing and
// scheduling, while the simulated commit cost is visible in the machine
// stats; the in-process serve driver (workload.RunServe) is the
// simulated-cycles complement.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
	"repro/ssp"
	"repro/ssp/kv"
)

// Config shapes a Server.
type Config struct {
	Addr       string     // listen address (e.g. "127.0.0.1:0")
	Machine    ssp.Config // simulated machine; Cores is the worker count
	Items      int        // per-core cache capacity (default 4096)
	ValueBytes int        // max value size in bytes (default 64)
	Relaxed    bool       // ack writes after CommitRelaxed instead of Commit
	QueueDepth int        // per-worker queue depth (default 128)
}

// request is one parsed operation in flight from a connection handler to a
// worker. The handler blocks on reply before reusing any buffer it passed,
// so val needs no copy: for SET it aliases the scanner's line buffer, for
// GET it is the handler's scratch buffer the worker fills.
type request struct {
	kind  byte // 'G', 'S', 'D', 'Y'
	key   uint64
	val   []byte
	enq   int64 // host nanos at enqueue
	reply chan reply
}

type reply struct {
	found bool
	n     int // GET: value bytes written into val
}

// worker is one core's execution context: its queue, its kv shard, and its
// latency histogram (mutex-guarded so STATS can read it mid-run).
type worker struct {
	queue chan request
	shard *kv.Cache

	mu   sync.Mutex
	hist stats.Histogram
}

// Server is a running KV front end. Close shuts it down; it is not
// restartable.
type Server struct {
	cfg Config
	m   *ssp.Machine
	ln  net.Listener

	workers []*worker

	mu    sync.Mutex
	conns map[net.Conn]struct{}

	connWG     sync.WaitGroup
	acceptDone chan struct{}
	runDone    chan struct{}

	closeOnce sync.Once

	// Server-level op counters (machine stats are quiescent-only, so the
	// live STATS command reports these).
	conns64, gets, sets, dels, syncs, misses, committed, errs atomic.Uint64
	idleHardens                                               atomic.Uint64
}

// idleHardenAfter is how long a relaxed worker's queue must stay empty in
// host time before it hardens its shard's open epoch. Host time because an
// idle core's simulated clock is frozen — there is no simulated moment at
// which the epoch "ages out" without traffic.
const idleHardenAfter = 2 * time.Millisecond

// New builds the machine, shards the cache one kv.Cache per core, starts
// the worker goroutines inside Machine.Run, and begins accepting on
// cfg.Addr.
func New(cfg Config) (*Server, error) {
	if cfg.Machine.Cores == 0 {
		cfg.Machine.Cores = 1
	}
	if cfg.Items == 0 {
		cfg.Items = 4096
	}
	if cfg.ValueBytes == 0 {
		cfg.ValueBytes = 64
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 128
	}
	if cfg.Relaxed && cfg.Machine.DurabilityEpoch == 0 {
		return nil, fmt.Errorf("server: Relaxed requires Machine.DurabilityEpoch > 0")
	}
	m, err := ssp.New(cfg.Machine)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}

	s := &Server{
		cfg:        cfg,
		m:          m,
		conns:      map[net.Conn]struct{}{},
		acceptDone: make(chan struct{}),
		runDone:    make(chan struct{}),
	}

	// Serial setup: one shard + arena per core, owned by that core's worker.
	entry := 40 + cfg.ValueBytes
	pages := (cfg.Items*entry + (cfg.Items/4)*8) / ssp.PageBytes
	pages += pages/2 + 4
	for i := 0; i < cfg.Machine.Cores; i++ {
		c := m.Core(i)
		c.Begin()
		arena := m.NewArena(c, pages)
		shard := kv.Create(c, arena, kv.Config{
			Buckets:    cfg.Items / 4,
			Capacity:   cfg.Items,
			ValueBytes: cfg.ValueBytes,
		})
		c.Commit()
		s.workers = append(s.workers, &worker{
			queue: make(chan request, cfg.QueueDepth),
			shard: shard,
		})
	}

	// Measurement hygiene: serving starts from aligned clocks and clean
	// counters, like the parallel driver's measured window.
	m.Drain()
	start := m.MaxClock()
	for i := 0; i < cfg.Machine.Cores; i++ {
		m.Core(i).SetNow(start)
	}
	m.ResetStats()

	go func() {
		m.Run(func(c *ssp.Core) {
			// Queue receives wrap in Core.BlockExternal: a worker blocked
			// on its host channel must not hold the scheduler's lockstep
			// window open for the other cores. Request ARRIVAL stays
			// host-ordered — a network server cannot be deterministic — but
			// the scheduler still bounds cross-core clock lag while
			// requests execute. Each loop builds its wait closure once:
			// it runs on the core's helper goroutine, so it escapes.
			w := s.workers[c.ID()]
			var req request
			var ok bool
			if !cfg.Relaxed {
				recv := func() { req, ok = <-w.queue }
				for {
					c.BlockExternal(recv)
					if !ok {
						return
					}
					s.execute(c, w, req)
				}
			}
			// Relaxed mode: the epoch age bound is billed to the next
			// committer, so a worker whose queue suddenly empties would
			// leave its shard's last acknowledged epoch volatile until the
			// next SYNC or Close. After idleHardenAfter of host-time quiet,
			// harden the core's own shard (Core.HardenIdle); the timer only
			// rearms while there is something left to harden.
			idle := time.NewTimer(idleHardenAfter)
			defer idle.Stop()
			var timedOut bool
			recv := func() {
				select {
				case req, ok = <-w.queue:
					timedOut = false
				case <-idle.C:
					timedOut = true
				}
			}
			for {
				c.BlockExternal(recv)
				if timedOut {
					if c.HardenIdle() {
						s.idleHardens.Add(1)
						idle.Reset(idleHardenAfter)
					}
					continue
				}
				if !ok {
					return
				}
				s.execute(c, w, req)
				if !idle.Stop() {
					select {
					case <-idle.C:
					default:
					}
				}
				idle.Reset(idleHardenAfter)
			}
		})
		close(s.runDone)
	}()

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		s.stopWorkers()
		return nil, fmt.Errorf("server: %w", err)
	}
	s.ln = ln
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Relaxed reports the acknowledgment mode.
func (s *Server) Relaxed() bool { return s.cfg.Relaxed }

func (s *Server) acceptLoop() {
	defer close(s.acceptDone)
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.conns64.Add(1)
		s.connWG.Add(1)
		go s.serveConn(conn)
	}
}

// execute runs one request on its owning core. Runs on the worker's
// goroutine inside Machine.Run — the only goroutine that touches this core
// and this shard.
func (s *Server) execute(c *ssp.Core, w *worker, req request) {
	var rep reply
	switch req.kind {
	case 'G':
		// GETs read committed state outside any transaction, as in the
		// memcached workloads.
		n, ok := w.shard.Get(c, req.key, req.val)
		rep = reply{found: ok, n: n}
		s.gets.Add(1)
		if !ok {
			s.misses.Add(1)
		}
	case 'S':
		c.Begin()
		w.shard.Set(c, req.key, req.val)
		s.commit(c)
		rep = reply{found: true}
		s.sets.Add(1)
		s.committed.Add(1)
	case 'D':
		c.Begin()
		found := w.shard.Delete(c, req.key)
		s.commit(c)
		rep = reply{found: found}
		s.dels.Add(1)
		s.committed.Add(1)
		if !found {
			s.misses.Add(1)
		}
	case 'Y':
		// Routed to core 0: one core's Sync hardens every journal shard.
		c.Sync()
		rep = reply{found: true}
		s.syncs.Add(1)
	}
	lat := time.Now().UnixNano() - req.enq
	if lat < 0 {
		lat = 0
	}
	w.mu.Lock()
	w.hist.Record(uint64(lat))
	w.mu.Unlock()
	req.reply <- rep
}

func (s *Server) commit(c *ssp.Core) {
	if s.cfg.Relaxed {
		c.CommitRelaxed()
	} else {
		c.Commit()
	}
}

// parseKey accepts a decimal uint64 or hashes any other token (FNV-1a), so
// human-typed string keys work over the wire while the load generator's
// numeric keys route stably.
func parseKey(tok string) uint64 {
	if k, err := strconv.ParseUint(tok, 10, 64); err == nil {
		return k
	}
	h := fnv.New64a()
	h.Write([]byte(tok))
	return h.Sum64()
}

// lineSlackBytes is the room a request line gets beyond its value: the
// verb, the key token and the separators.
const lineSlackBytes = 256

// maxLineBytes bounds one request line so a full-size SET always fits,
// never below the scanner's default.
func maxLineBytes(valueBytes int) int {
	return max(bufio.MaxScanTokenSize, lineSlackBytes+valueBytes)
}

func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		conn.Close()
		s.connWG.Done()
	}()

	sc := bufio.NewScanner(conn)
	sc.Buffer(nil, maxLineBytes(s.cfg.ValueBytes))
	out := bufio.NewWriter(conn)
	replyCh := make(chan reply, 1)
	getBuf := make([]byte, s.cfg.ValueBytes)
	nWorkers := uint64(len(s.workers))

	for sc.Scan() {
		line := sc.Text()
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		cmd := strings.ToUpper(fields[0])
		var req request
		switch {
		case cmd == "GET" && len(fields) == 2:
			req = request{kind: 'G', key: parseKey(fields[1]), val: getBuf}
		case cmd == "SET" && len(fields) == 3:
			val := fields[2]
			if len(val) > s.cfg.ValueBytes {
				val = val[:s.cfg.ValueBytes]
			}
			req = request{kind: 'S', key: parseKey(fields[1]), val: []byte(val)}
		case cmd == "DEL" && len(fields) == 2:
			req = request{kind: 'D', key: parseKey(fields[1])}
		case cmd == "SYNC" && len(fields) == 1:
			req = request{kind: 'Y'}
		case cmd == "STATS" && len(fields) == 1:
			s.writeStats(out)
			out.Flush()
			continue
		case cmd == "QUIT" && len(fields) == 1:
			fmt.Fprintf(out, "BYE\n")
			out.Flush()
			return
		default:
			s.errs.Add(1)
			fmt.Fprintf(out, "ERR bad command\n")
			out.Flush()
			continue
		}

		req.enq = time.Now().UnixNano()
		req.reply = replyCh
		w := s.workers[req.key%nWorkers]
		if req.kind == 'Y' {
			w = s.workers[0]
		}
		w.queue <- req
		rep := <-replyCh

		switch req.kind {
		case 'G':
			if rep.found {
				fmt.Fprintf(out, "VALUE %s\n", trimZero(getBuf[:rep.n]))
			} else {
				fmt.Fprintf(out, "MISS\n")
			}
		case 'S':
			fmt.Fprintf(out, "STORED\n")
		case 'D':
			if rep.found {
				fmt.Fprintf(out, "DELETED\n")
			} else {
				fmt.Fprintf(out, "MISS\n")
			}
		case 'Y':
			fmt.Fprintf(out, "SYNCED\n")
		}
		out.Flush()
	}
	if errors.Is(sc.Err(), bufio.ErrTooLong) {
		s.errs.Add(1)
		fmt.Fprintf(out, "ERR line too long\n")
		out.Flush()
	}
}

// trimZero strips the zero padding a short value picks up from the
// fixed-size GET buffer.
func trimZero(b []byte) []byte {
	for len(b) > 0 && b[len(b)-1] == 0 {
		b = b[:len(b)-1]
	}
	return b
}

// Snapshot is the server-level counter set, readable while serving.
type Snapshot struct {
	Conns, Gets, Sets, Dels, Syncs, Misses, Committed, Errors uint64
	IdleHardens                                               uint64          // epochs hardened from workers' idle paths
	Hist                                                      stats.Histogram // ack latency, host ns, all workers merged
}

// Snapshot reads the live counters and merges the per-worker histograms.
func (s *Server) Snapshot() Snapshot {
	snap := Snapshot{
		Conns:       s.conns64.Load(),
		Gets:        s.gets.Load(),
		Sets:        s.sets.Load(),
		Dels:        s.dels.Load(),
		Syncs:       s.syncs.Load(),
		Misses:      s.misses.Load(),
		Committed:   s.committed.Load(),
		Errors:      s.errs.Load(),
		IdleHardens: s.idleHardens.Load(),
	}
	for _, w := range s.workers {
		w.mu.Lock()
		snap.Hist.Merge(&w.hist)
		w.mu.Unlock()
	}
	return snap
}

func (s *Server) writeStats(out *bufio.Writer) {
	snap := s.Snapshot()
	fmt.Fprintf(out, "STAT cores=%d relaxed=%v conns=%d gets=%d sets=%d dels=%d syncs=%d misses=%d committed=%d errors=%d idle_hardens=%d\n",
		len(s.workers), s.cfg.Relaxed, snap.Conns, snap.Gets, snap.Sets, snap.Dels, snap.Syncs, snap.Misses, snap.Committed, snap.Errors, snap.IdleHardens)
	fmt.Fprintf(out, "STAT lat_ns %s\n", snap.Hist.String())
	fmt.Fprintf(out, "END\n")
}

// stopWorkers closes the worker queues and waits for Machine.Run to return.
// Callers must guarantee no enqueuer is left (all connections drained).
func (s *Server) stopWorkers() {
	for _, w := range s.workers {
		close(w.queue)
	}
	<-s.runDone
}

// Close shuts down: stop accepting, force-close connections, wait for
// handlers, stop workers, then drain the machine so every relaxed epoch
// hardens. Idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.ln.Close()
		<-s.acceptDone
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		s.connWG.Wait()
		s.stopWorkers()
		s.m.Drain()
	})
	return nil
}

// MachineStats returns the simulated machine's aggregated counters. Only
// valid after Close (machine stats are quiescent-only).
func (s *Server) MachineStats() stats.Stats { return *s.m.Stats() }

// Machine exposes the underlying machine for post-Close inspection.
func (s *Server) Machine() *ssp.Machine { return s.m }
