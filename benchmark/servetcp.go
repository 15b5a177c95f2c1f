package main

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"repro/internal/loadgen"
	"repro/internal/server"
	"repro/ssp"
)

// serve-tcp-2c: the real internal/server on a loopback port, driven by this
// file's own client. CLOSED loop, 2 connections: each sends its next request
// only when the previous reply has arrived, so the measured quantity is
// throughput and service time at a fixed concurrency of 2. (An open-loop TCP
// generator does not repeat on a 2-CPU host — its pacing is time.Sleep
// granularity — see the README.) Every VALUE reply is checked.

const tcpConns = 2

func serveTCPConfig(x *runCtx) server.Config {
	return server.Config{
		Addr:    "127.0.0.1:0",
		Machine: x.machineConfig(ssp.SSP, tcpConns),
		Items:   x.sz.ServeItems,
	}
}

func serveStream(x *runCtx, keys uint64) loadgen.Config {
	return loadgen.Config{Keys: keys, Skew: 0.99, ReadPct: 50, DelPct: 5, Seed: x.seed}
}

// connResult is one connection's view of its share of a window. Latencies
// are raw per-request samples in host ns — no histogram, whose 12.5% buckets
// turn identical runs into different p50s — split GET from SET/DEL.
type connResult struct {
	Ops, Gets, Hits, Failed int
	GetNS, SetNS            []uint32
	Slices                  []float64 // requests per second of each run of sliceRequests requests
	err                     error
}

// sliceRequests is the length of a connection's slice: some 50 ms.
const sliceRequests = 1000

// tcpConn runs n closed-loop requests from s over one connection. With rec
// set it records a request root with client.send / server+net / client.recv
// children.
func tcpConn(addr string, s *loadgen.Stream, n int, rec *recorder) (res connResult) {
	res.GetNS = make([]uint32, 0, n)
	res.SetNS = make([]uint32, 0, n)
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		res.err = err
		res.Failed = n
		return
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)
	line := make([]byte, 0, 64)
	want := make([]byte, 0, 32)
	last := time.Now()
	for i := 0; i < n; i++ {
		if i > 0 && i%sliceRequests == 0 {
			t := time.Now()
			res.Slices = append(res.Slices, sliceRequests/t.Sub(last).Seconds())
			last = t
		}
		op := s.Next()
		class := "SET tcp"
		if op.Kind == loadgen.OpGet {
			class = "GET tcp"
		}
		root := rec.open("request", class, -1, 0)
		sp := rec.open("client.send", class, root, 0)
		t0 := time.Now()
		line = append(line[:0], op.Kind.String()...)
		line = strconv.AppendUint(append(line, ' '), op.Key, 10)
		if op.Kind == loadgen.OpSet {
			line = strconv.AppendUint(append(line, " v"...), op.Key, 10)
		}
		line = append(line, '\n')
		_, err := conn.Write(line)
		rec.close(sp, 0)
		sp = rec.open("server+net", class, root, 0)
		var reply []byte
		if err == nil {
			reply, err = rd.ReadSlice('\n')
		}
		lat := time.Since(t0)
		rec.close(sp, 0)
		sp = rec.open("client.recv", class, root, 0)
		if err != nil {
			res.err = err
			res.Failed += n - i
			return
		}
		res.Ops++
		ns := uint32(lat)
		if op.Kind == loadgen.OpGet {
			res.Gets++
			res.GetNS = append(res.GetNS, ns)
			if len(reply) > 6 && string(reply[:6]) == "VALUE " {
				res.Hits++
				want = strconv.AppendUint(append(want[:0], 'v'), op.Key, 10)
				if string(reply[6:len(reply)-1]) != string(want) {
					res.Failed++
				}
			} else if string(reply) != "MISS\n" {
				res.Failed++
			}
		} else {
			res.SetNS = append(res.SetNS, ns)
			if r := string(reply); r != "STORED\n" && r != "DELETED\n" && r != "MISS\n" {
				res.Failed++
			}
		}
		rec.close(sp, 0)
		rec.close(root, 0)
	}
	return
}

// tcpWindow is one measured window over conns connections.
type tcpWindow struct {
	Ops, Gets, Hits, Failed int
	Wall                    time.Duration
	GetNS, SetNS, AllNS     []uint32
	// Slices is the window's request rate over each slice: the sum of the
	// connections' own rates in it (they run equal shares of the requests
	// side by side, so their i-th slices overlap).
	Slices []float64
	Spans  *recorder
}

// runTCP drives ops requests over conns closed-loop connections, forked
// streams one per connection.
func runTCP(x *runCtx, addr string, conns, ops int, traced bool) (tcpWindow, error) {
	parent := loadgen.New(serveStream(x, x.sz.TCPKeys))
	results := make([]connResult, conns)
	recs := make([]*recorder, conns)
	var w tcpWindow
	if traced {
		w.Spans = newRecorder("serve-tcp-2c", 4*ops)
		for i := range recs {
			recs[i] = &recorder{t0: w.Spans.t0, spans: make([]span, 0, 4*ops/conns+4)}
		}
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < conns; i++ {
		share := ops / conns
		if i < ops%conns {
			share++
		}
		wg.Add(1)
		go func(i, share int) {
			defer wg.Done()
			results[i] = tcpConn(addr, parent.Fork(i), share, recs[i])
		}(i, share)
	}
	wg.Wait()
	w.Wall = time.Since(t0)
	var firstErr error
	for i, r := range results {
		w.Ops += r.Ops
		w.Gets += r.Gets
		w.Hits += r.Hits
		w.Failed += r.Failed
		w.GetNS = append(w.GetNS, r.GetNS...)
		w.SetNS = append(w.SetNS, r.SetNS...)
		if i == 0 {
			w.Slices = append(w.Slices, r.Slices...)
		} else {
			w.Slices = w.Slices[:min(len(w.Slices), len(r.Slices))]
			for j := range w.Slices {
				w.Slices[j] += r.Slices[j]
			}
		}
		if firstErr == nil {
			firstErr = r.err
		}
		if traced {
			w.Spans.absorb(recs[i])
		}
	}
	w.AllNS = append(append([]uint32(nil), w.GetNS...), w.SetNS...)
	if w.Ops == 0 && firstErr != nil {
		return w, fmt.Errorf("tcp client: %w", firstErr)
	}
	return w, nil
}

// absorb appends o's spans, re-basing their parent indices.
func (r *recorder) absorb(o *recorder) {
	off := int32(len(r.spans))
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += off
		}
		r.spans = append(r.spans, s)
	}
}

// startServer is the set-up of a serve-tcp-2c window: server.New plus one
// warm-up pass of TCPWarm SETs, so the measured window starts with every key
// present and the simulated caches warm.
func startServer(x *runCtx) (*server.Server, error) {
	s, err := server.New(serveTCPConfig(x))
	if err != nil {
		return nil, err
	}
	conn, err := net.DialTimeout("tcp", s.Addr().String(), 5*time.Second)
	if err != nil {
		s.Close()
		return nil, err
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)
	line := make([]byte, 0, 64)
	for k := uint64(0); k < uint64(x.sz.TCPWarm); k++ {
		line = strconv.AppendUint(append(line[:0], "SET "...), k, 10)
		line = strconv.AppendUint(append(line, " v"...), k, 10)
		line = append(line, '\n')
		if _, err := conn.Write(line); err == nil {
			_, err = rd.ReadSlice('\n')
		}
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

// tcpTwinSpec is the in-process pass of the same request stream.
func tcpTwinSpec(x *runCtx, b ssp.Backend, streams, ops int) twinSpec {
	return twinSpec{
		cfg:     x.machineConfig(b, tcpConns),
		items:   x.sz.ServeItems,
		stream:  serveStream(x, x.sz.TCPKeys),
		streams: streams, warm: x.sz.TCPWarm, ops: ops,
	}
}

// serveTCPBaseline produces every simulated metric of serve-tcp-2c from the
// kv twin, on all three backends: the live server's simulated clocks depend
// on the order the host delivers requests in, the twin's do not.
func serveTCPBaseline(x *runCtx) (baselineResult, error) {
	var res baselineResult
	for _, b := range []ssp.Backend{ssp.SSP, ssp.UndoLog, ssp.RedoLog} {
		t, err := runTwin(tcpTwinSpec(x, b, tcpConns, x.sz.TCPOps), nil)
		if err != nil {
			return res, err
		}
		if b == ssp.SSP {
			res.Sim = t.simMetrics()
			res.Failed = t.Wrong
		} else {
			res.add(b, float64(t.Ops)/t.Machine.Seconds(t.Cycles), &t.Stats)
		}
		collectGarbage()
	}
	return res, nil
}

func serveTCPRep(x *runCtx) (repResult, error) {
	t0 := time.Now()
	s, err := startServer(x)
	if err != nil {
		return repResult{}, err
	}
	setup := time.Since(t0)
	w, err := runTCP(x, s.Addr().String(), tcpConns, x.sz.TCPOps, false)
	s.Close()
	if err != nil {
		return repResult{}, err
	}
	x.logf("  closed loop, %d connections: GET p50 %.1f us (n=%d), SET/DEL p50 %.1f us (n=%d)\n", tcpConns,
		float64(percentile(w.GetNS, 50))/1e3, len(w.GetNS), float64(percentile(w.SetNS, 50))/1e3, len(w.SetNS))
	if len(w.Slices) == 0 { // a window shorter than one slice (the tests)
		w.Slices = []float64{float64(w.Ops) / w.Wall.Seconds()}
	}
	return repResult{
		Setup: setup, Window: w.Wall, Ops: x.sz.TCPOps, Failed: w.Failed + x.sz.TCPOps - w.Ops,
		Slices: [][]float64{w.Slices},
	}, nil
}

func serveTCPTraced(x *runCtx) (tracedResult, error) {
	ops := x.sz.TCPOps
	res := tracedResult{Ops: ops, Layer: metricSet{}}

	// 1. The workload itself, untraced then traced, for the overhead figure.
	window := func(conns int, traced bool) (tcpWindow, *server.Server, error) {
		s, err := startServer(x)
		if err != nil {
			return tcpWindow{}, nil, err
		}
		w, err := runTCP(x, s.Addr().String(), conns, ops, traced)
		s.Close()
		return w, s, err
	}
	plain, _, err := window(tcpConns, false)
	if err != nil {
		return res, err
	}
	collectGarbage()
	meter := startAllocMeter()
	w, srv, err := window(tcpConns, true)
	if err != nil {
		return res, err
	}
	res.Layer.merge(meter.stop(ops))
	after, _, err := window(tcpConns, false)
	if err != nil {
		return res, err
	}
	plainWall := (plain.Wall + after.Wall) / 2
	spanHost, _ := w.Spans.rootTotals()
	res.Layer["trace.host_residual_pct"] = 100 * (1 - float64(spanHost)/float64(tcpConns*w.Wall))
	res.Failed = w.Failed + ops - w.Ops
	us := func(ns uint32) float64 { return float64(ns) / 1e3 }
	res.Layer["tcp_get_p50_us"] = us(percentile(w.GetNS, 50))
	res.Layer["tcp_set_p50_us"] = us(percentile(w.SetNS, 50))
	res.Layer["server.tcp_p99_us"] = us(percentile(w.AllNS, 99))
	res.Layer["server.tcp_p999_us"] = us(percentile(w.AllNS, 99.9))
	res.Layer["server.hit_ratio"] = float64(w.Hits) / float64(w.Gets)
	res.Layer["trace.overhead_pct"] = 100 * (float64(w.Wall)/float64(plainWall) - 1)
	x.logf("  closed loop, %d connections, %d requests: GET p50 %.1f us (n=%d), SET/DEL p50 %.1f us (n=%d)\n",
		tcpConns, w.Ops, res.Layer["tcp_get_p50_us"], len(w.GetNS), res.Layer["tcp_set_p50_us"], len(w.SetNS))
	x.logf("  all requests (n=%d): p99 %.1f us, p99.9 %.1f us — p99.9 is the highest percentile with >= 10 samples beyond it (%d)\n",
		len(w.AllNS), res.Layer["server.tcp_p99_us"], res.Layer["server.tcp_p999_us"], len(w.AllNS)/1000)
	x.logf("  host spans cover %.1f%% of the two connections' time; trace.overhead_pct %.1f (%.2f us/op traced vs %.2f untraced, mean of a window before and one after)\n",
		100-res.Layer["trace.host_residual_pct"], res.Layer["trace.overhead_pct"], usPerOp(w.Wall, ops), usPerOp(plainWall, ops))

	// Counters of the live server's machine, and a crash of it: everything
	// the server acknowledged synchronously must survive Restore.
	st := srv.MachineStats()
	res.Layer.merge(counterMetrics(&st, float64(st.Commits)))
	t0 := time.Now()
	img := srv.Machine().Crash()
	_, rerr := ssp.Restore(srv.Machine().ConfigUsed(), img)
	res.Layer["machine.restore_ms"] = float64(time.Since(t0)) / 1e6
	if rerr != nil {
		res.Failed += ops
	}
	res.Layer["machine.new_ms"] = timeMachineNew(serveTCPConfig(x).Machine)
	collectGarbage()

	// 2. What the server adds: one connection over TCP against the same
	// stream in-process (the twin), minus the client's own share.
	one, _, err := window(1, false)
	if err != nil {
		return res, err
	}
	res.Failed += one.Failed
	twinPlain, err := runTwin(tcpTwinSpec(x, ssp.SSP, 1, ops), nil)
	if err != nil {
		return res, err
	}
	rec := w.Spans
	if _, err := runTwin(tcpTwinSpec(x, ssp.SSP, 1, ops), rec); err != nil {
		return res, err
	}
	aggs := rec.aggregate()
	sendNS, _ := perOp(aggs, "", "client.send")
	recvNS, _ := perOp(aggs, "", "client.recv")
	res.Layer["loadgen.client_us_per_op"] = (sendNS + recvNS) / 1e3
	res.Layer["server.overhead_us_per_op"] = usPerOp(one.Wall, ops) - usPerOp(twinPlain.Host, ops) - res.Layer["loadgen.client_us_per_op"]
	x.logf("  server.overhead_us_per_op %.2f = 1-connection TCP %.2f us/op - in-process twin %.2f us/op - client %.2f us/op\n",
		res.Layer["server.overhead_us_per_op"], usPerOp(one.Wall, ops), usPerOp(twinPlain.Host, ops), res.Layer["loadgen.client_us_per_op"])

	twinSpanMetrics(aggs, res.Layer)
	res.Table = stackTable(aggs)
	if err := rec.write(x); err != nil {
		return res, err
	}
	return res, nil
}
