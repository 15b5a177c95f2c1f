package server

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/loadgen"
	"repro/ssp"
)

// dial connects a raw test client to a server.
func dial(t *testing.T, s *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn, bufio.NewReader(conn)
}

func roundTrip(t *testing.T, conn net.Conn, rd *bufio.Reader, req string) string {
	t.Helper()
	if _, err := fmt.Fprintf(conn, "%s\n", req); err != nil {
		t.Fatalf("write %q: %v", req, err)
	}
	line, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("read after %q: %v", req, err)
	}
	return strings.TrimSpace(line)
}

// TestServerProtocol exercises every verb through a real socket.
func TestServerProtocol(t *testing.T) {
	s, err := New(Config{
		Addr:    "127.0.0.1:0",
		Machine: ssp.Config{Cores: 2},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	conn, rd := dial(t, s)

	if got := roundTrip(t, conn, rd, "GET 7"); got != "MISS" {
		t.Fatalf("GET empty = %q, want MISS", got)
	}
	if got := roundTrip(t, conn, rd, "SET 7 hello"); got != "STORED" {
		t.Fatalf("SET = %q, want STORED", got)
	}
	if got := roundTrip(t, conn, rd, "GET 7"); got != "VALUE hello" {
		t.Fatalf("GET = %q, want VALUE hello", got)
	}
	// String keys hash; a set must read back under the same token.
	if got := roundTrip(t, conn, rd, "SET user:42 v"); got != "STORED" {
		t.Fatalf("SET string key = %q", got)
	}
	if got := roundTrip(t, conn, rd, "GET user:42"); got != "VALUE v" {
		t.Fatalf("GET string key = %q", got)
	}
	if got := roundTrip(t, conn, rd, "SYNC"); got != "SYNCED" {
		t.Fatalf("SYNC = %q", got)
	}
	if got := roundTrip(t, conn, rd, "DEL 7"); got != "DELETED" {
		t.Fatalf("DEL = %q", got)
	}
	if got := roundTrip(t, conn, rd, "DEL 7"); got != "MISS" {
		t.Fatalf("DEL absent = %q, want MISS", got)
	}
	if got := roundTrip(t, conn, rd, "NOPE"); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("bad command = %q, want ERR", got)
	}
	if got := roundTrip(t, conn, rd, "STATS"); !strings.HasPrefix(got, "STAT ") {
		t.Fatalf("STATS = %q", got)
	}
	// Drain the remaining STATS lines up to END.
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			t.Fatalf("read stats: %v", err)
		}
		if strings.TrimSpace(line) == "END" {
			break
		}
	}
	if got := roundTrip(t, conn, rd, "QUIT"); got != "BYE" {
		t.Fatalf("QUIT = %q", got)
	}
}

// TestServerLineTooLong sends a SET whose line exceeds the scanner's limit:
// the server must count the error, reply, and close the connection rather
// than dropping it silently.
func TestServerLineTooLong(t *testing.T) {
	s, err := New(Config{
		Addr:    "127.0.0.1:0",
		Machine: ssp.Config{Cores: 1},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	conn, rd := dial(t, s)

	// The server may close before it has read the whole line, so the write
	// can fail part-way; only the reply matters.
	_, _ = fmt.Fprintf(conn, "SET 1 %s\n", strings.Repeat("x", maxLineBytes(s.cfg.ValueBytes)))
	line, err := rd.ReadString('\n')
	if err != nil {
		t.Fatalf("read reply: %v", err)
	}
	if got := strings.TrimSpace(line); got != "ERR line too long" {
		t.Fatalf("oversized SET = %q, want ERR line too long", got)
	}
	if got := s.Snapshot().Errors; got != 1 {
		t.Fatalf("errs = %d, want 1", got)
	}
	if _, err := rd.ReadString('\n'); err == nil {
		t.Fatal("connection still open after an oversized line")
	}
}

// TestServerRelaxedRequiresEpoch checks the config guard.
func TestServerRelaxedRequiresEpoch(t *testing.T) {
	if _, err := New(Config{Addr: "127.0.0.1:0", Relaxed: true}); err == nil {
		t.Fatalf("Relaxed without DurabilityEpoch should fail")
	}
}

// TestServerStress is the -race stress test: concurrent connections at high
// key skew (hot-key contention on a few shards), sync and relaxed servers,
// interleaved SYNCs, then stats-identity checks on both the server counters
// and the machine counters after shutdown.
func TestServerStress(t *testing.T) {
	for _, tc := range []struct {
		name    string
		relaxed bool
		machine ssp.Config
	}{
		{"sync", false, ssp.Config{Cores: 4, Channels: 2, JournalShards: 2}},
		{"relaxed", true, ssp.Config{Cores: 4, Channels: 2, JournalShards: 2, DurabilityEpoch: 200000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{
				Addr:    "127.0.0.1:0",
				Machine: tc.machine,
				Items:   512,
				Relaxed: tc.relaxed,
			})
			if err != nil {
				t.Fatalf("New: %v", err)
			}

			const conns, ops = 8, 4000
			res, err := loadgen.RunTCP(loadgen.TCPConfig{
				Addr:  s.Addr().String(),
				Conns: conns,
				Ops:   ops,
				Stream: loadgen.Config{
					Keys:    256, // small key space + skew → hot shards
					Skew:    1.2,
					ReadPct: 40,
					DelPct:  10,
					Seed:    0xBEEF,
				},
				SyncEvery: 100, // interleave durability barriers with relaxed acks
			})
			if err != nil {
				t.Fatalf("RunTCP: %v", err)
			}
			if res.Errors != 0 {
				t.Fatalf("client saw %d errors", res.Errors)
			}
			if res.Ops != ops {
				t.Fatalf("client completed %d ops, want %d", res.Ops, ops)
			}

			snap := s.Snapshot()
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			// Server-side identities: every client op was counted exactly
			// once, every counted op recorded exactly one latency sample.
			if snap.Gets != res.Gets {
				t.Errorf("server gets %d != client gets %d", snap.Gets, res.Gets)
			}
			if snap.Sets+snap.Dels != res.Writes {
				t.Errorf("server writes %d != client writes %d", snap.Sets+snap.Dels, res.Writes)
			}
			if snap.Committed != snap.Sets+snap.Dels {
				t.Errorf("committed %d != sets+dels %d", snap.Committed, snap.Sets+snap.Dels)
			}
			wantSyncs := uint64(conns) * (ops / conns / 100)
			if snap.Syncs != wantSyncs {
				t.Errorf("syncs %d, want %d", snap.Syncs, wantSyncs)
			}
			if snap.Errors != 0 {
				t.Errorf("server counted %d protocol errors", snap.Errors)
			}
			if want := snap.Gets + snap.Sets + snap.Dels + snap.Syncs; snap.Hist.Count != want {
				t.Errorf("latency samples %d != ops %d", snap.Hist.Count, want)
			}

			// Machine-side identities after Drain: the machine committed at
			// least one transaction per acked write (setup commits add more),
			// and in relaxed mode every write was a relaxed commit and none
			// were lost (no crash happened).
			mst := s.MachineStats()
			if mst.Commits < snap.Committed {
				t.Errorf("machine commits %d < acked writes %d", mst.Commits, snap.Committed)
			}
			if tc.relaxed {
				// Empty-write-set commits (DEL of an absent key) count as
				// Commits but not RelaxedCommits, so the exact identity is
				// against writes that touched pages: SETs + successful DELs.
				if want := snap.Sets + res.Deleted; mst.RelaxedCommits != want {
					t.Errorf("relaxed commits %d != sets+deleted %d", mst.RelaxedCommits, want)
				}
				if mst.LostEpochTxns != 0 {
					t.Errorf("lost %d epoch txns without a crash", mst.LostEpochTxns)
				}
				if mst.HardenedEpochs == 0 {
					t.Errorf("no epochs hardened despite relaxed traffic")
				}
			} else if mst.RelaxedCommits != 0 {
				t.Errorf("sync server made %d relaxed commits", mst.RelaxedCommits)
			}
		})
	}
}

// TestServerIdleHardener: a relaxed worker that goes idle right after an
// acked write must not hold its epoch open indefinitely — the idle path
// hardens it within idleHardenAfter, without any SYNC from the client. The
// huge DurabilityEpoch rules the commit-path age bound out, so a hardened
// epoch can only have come from the idle hardener.
func TestServerIdleHardener(t *testing.T) {
	s, err := New(Config{
		Addr:    "127.0.0.1:0",
		Machine: ssp.Config{Cores: 2, DurabilityEpoch: 1 << 30},
		Relaxed: true,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	conn, rd := dial(t, s)
	if got := roundTrip(t, conn, rd, "SET 3 v"); got != "STORED" {
		t.Fatalf("SET = %q, want STORED", got)
	}

	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().IdleHardens == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle worker never hardened its open epoch")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if mst := s.MachineStats(); mst.HardenedEpochs == 0 {
		t.Error("IdleHardens counted but no epoch hardened in the machine stats")
	}
}

// TestServerCloseIdempotent checks double Close and post-close dial failure.
func TestServerCloseIdempotent(t *testing.T) {
	s, err := New(Config{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	addr := s.Addr().String()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if conn, err := net.Dial("tcp", addr); err == nil {
		conn.Close()
		t.Fatalf("dial succeeded after Close")
	}
}
