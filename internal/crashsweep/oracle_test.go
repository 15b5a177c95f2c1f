package crashsweep

import (
	"fmt"
	"strings"
	"testing"

	"repro/ssp"
)

// plant commits vals synchronously on a fresh one-core machine, standing in
// for what recovery left behind.
func plant(vals map[uint64]uint64) *ssp.Machine {
	m := ssp.MustNew(Config(ssp.SSP))
	m.Heap().EnsureMapped(nil, 1, 7)
	c := m.Core(0)
	c.Begin()
	for va, v := range vals {
		c.Store64(va, v)
	}
	c.Commit()
	return m
}

// view is a one-core script's transactions as the checker sees them, none
// started yet.
func view(sc Script) []txn {
	txns := make([]txn, len(sc.Txns))
	for i, vas := range sc.Txns {
		txns[i].relaxed = sc.Relaxed
		for _, va := range vas {
			txns[i].writes = append(txns[i].writes, write{va, uint64(i + 1)})
		}
	}
	return txns
}

// A lost boundary transaction's fresh addresses — ones no committed
// transaction wrote — must read zero: the boundary is probed absent at its
// lowest address, so a value at its upper one is a tear.
func TestVerifyChecksLostBoundaryFreshAddresses(t *testing.T) {
	lo, hi := addr(7, 0), addr(7, 1)
	committed := map[uint64]uint64{addr(1, 0): 1, addr(1, 1): 2}
	boundary := map[uint64]uint64{lo: 3, hi: 3}
	if err := Verify(plant(committed), committed, boundary); err != nil {
		t.Fatalf("a cleanly lost boundary failed verification: %v", err)
	}
	planted := map[uint64]uint64{addr(1, 0): 1, addr(1, 1): 2, hi: 5}
	err := Verify(plant(planted), committed, boundary)
	want := fmt.Sprintf("boundary txn torn (applied=false): %#x got 5 want 0", hi)
	if err == nil || err.Error() != want {
		t.Fatalf("Verify with a value at a lost boundary's fresh address returned %v, want %q", err, want)
	}
}

// The relaxed rules, one state at a time: a relaxed script of three
// transactions on one core (so one journal shard), an outcome, and the
// values recovery left. Legal states pass; each illegal one is rejected.
func TestCheckRelaxedStates(t *testing.T) {
	a0, a1, b, c := addr(1, 0), addr(1, 1), addr(1, 2), addr(1, 3)
	sc := Script{Relaxed: true, Txns: [][]uint64{{a0, a1}, {b}, {c}}}
	acked := []int{1, 2, 3}
	cases := []struct {
		name     string
		ack      []int // per txn
		inFlight int   // txn in flight at power-off, or -1
		floor    int
		vals     map[uint64]uint64
		want     string // "" for a legal state
	}{
		{"all lost past the floor", acked, -1, 0, nil, ""},
		{"suffix lost", acked, -1, 0, map[uint64]uint64{a0: 1, a1: 1}, ""},
		{"in-flight boundary applied", []int{1, 2, 0}, 2, 0, map[uint64]uint64{a0: 1, a1: 1, b: 2, c: 3}, ""},
		{"torn relaxed transaction", acked, -1, 0, map[uint64]uint64{a0: 1},
			fmt.Sprintf("addr %#x: got 0 want 1", a1)},
		{"loss not a suffix", acked, -1, 0, map[uint64]uint64{b: 2},
			"txn 1 survived on shard 0 after txn 0 was lost: epoch cut not a suffix"},
		{"loss behind a completed Sync", acked, -1, 2, map[uint64]uint64{a0: 1, a1: 1},
			fmt.Sprintf("addr %#x: got 0 want 2", b)},
		{"unacknowledged transaction present", []int{1, 0, 0}, -1, 1, map[uint64]uint64{a0: 1, a1: 1, c: 3},
			fmt.Sprintf("addr %#x: got 3 want 0", c)},
	}
	for _, tc := range cases {
		m := plant(tc.vals)
		txns := view(sc)
		for i := range txns {
			txns[i].ack, txns[i].inFlight = tc.ack[i], i == tc.inFlight
		}
		err := check(m, txns, tc.floor)
		if tc.want == "" && err != nil {
			t.Errorf("%s: a legal state was rejected: %v", tc.name, err)
		} else if tc.want != "" && (err == nil || err.Error() != tc.want) {
			t.Errorf("%s: check returned %v, want %q", tc.name, err, tc.want)
		}
	}
}

// An uncertain transaction whose every address a later-started transaction
// rewrites has no witness: the oracle cannot tell whether it survived, and
// says so instead of passing.
func TestCheckRejectsUncertainWithoutWitness(t *testing.T) {
	sc := Script{Relaxed: true, Txns: [][]uint64{{addr(1, 0)}, {addr(1, 0)}}}
	m := plant(nil)
	txns := view(sc)
	txns[0].ack, txns[1].ack = 1, 2
	err := check(m, txns, 0)
	if err == nil || !strings.Contains(err.Error(), "txn 0 is uncertain and has no witness") {
		t.Fatalf("check returned %v, want the missing witness named", err)
	}
}
