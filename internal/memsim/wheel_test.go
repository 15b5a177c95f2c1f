package memsim

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/stats"
)

// refWheel is the occupancy ring as it was before rings were sized by the
// span they cover: a fixed wheelBuckets-long array, allocated whole. It is
// the reference model wheel must match lookup for lookup.
type refWheel struct {
	b [wheelBuckets]wbucket
}

func (w *refWheel) reserveFIFO(at, dur engine.Cycles) engine.Cycles {
	b := &w.b
	if at < 0 {
		at = 0
	}
	idx := int64(at) / wheelSpan
	start := at
	if p := idx - 1; p >= 0 {
		if s := &b[p%wheelBuckets]; s.epoch == p {
			if e := engine.Cycles(p)*wheelSpan + s.used; e > start {
				start = e
			}
		}
	}
	for {
		s := &b[idx%wheelBuckets]
		if s.epoch < idx {
			s.epoch, s.used = idx, 0
		}
		if s.epoch > idx {
			return start
		}
		base := engine.Cycles(idx) * wheelSpan
		if e := base + s.used; e > start {
			start = e
		}
		if start < base+wheelSpan {
			w.bookFrontier(start, dur)
			return start
		}
		idx++
	}
}

func (w *refWheel) bookFrontier(start, dur engine.Cycles) {
	b := &w.b
	end := start + dur
	for idx := int64(start) / wheelSpan; engine.Cycles(idx)*wheelSpan < end; idx++ {
		s := &b[idx%wheelBuckets]
		if s.epoch < idx {
			s.epoch, s.used = idx, 0
		}
		if s.epoch > idx {
			return
		}
		if rel := end - engine.Cycles(idx)*wheelSpan; rel > s.used {
			s.used = rel
		}
	}
}

func (w *refWheel) reserveCapacity(at, dur engine.Cycles) engine.Cycles {
	b := &w.b
	if at < 0 {
		at = 0
	}
	idx := int64(at) / wheelSpan
	start := engine.Cycles(-1)
	for dur > 0 {
		s := &b[idx%wheelBuckets]
		if s.epoch < idx {
			s.epoch, s.used = idx, 0
		}
		if s.epoch > idx {
			if start < 0 {
				return at
			}
			return start
		}
		if avail := wheelSpan - s.used; avail > 0 {
			if start < 0 {
				start = engine.Cycles(idx) * wheelSpan
				if at > start {
					start = at
				}
			}
			take := avail
			if dur < take {
				take = dur
			}
			s.used += take
			dur -= take
		}
		if dur > 0 {
			idx++
		}
	}
	return start
}

// sameBuckets reports the first bucket on which the two rings disagree: each
// non-empty bucket of either must sit in the other at its epoch's slot, and
// a full-length ring must equal the reference slot for slot.
func sameBuckets(w *wheel, ref *refWheel) string {
	if len(w.b) == wheelBuckets {
		if [wheelBuckets]wbucket(w.b) != ref.b {
			return "full-length ring differs from the reference slot for slot"
		}
		return ""
	}
	for _, s := range ref.b {
		if s != (wbucket{}) && (len(w.b) == 0 || w.b[s.epoch&int64(len(w.b)-1)] != s) {
			return fmt.Sprintf("reference bucket %+v missing from the %d-bucket ring", s, len(w.b))
		}
	}
	for _, s := range w.b {
		if s != (wbucket{}) && ref.b[s.epoch%wheelBuckets] != s {
			return fmt.Sprintf("ring bucket %+v not in the reference", s)
		}
	}
	return ""
}

// TestWheelMatchesScanModel drives a wheel and the fixed-length reference
// with the same seeded sequences of FIFO and capacity bookings: issue times
// that mostly advance but also fall behind the frontier (stragglers, some
// behind everything the ring remembers), jumps that carry the span across
// wheelBuckets buckets, bookings longer than a bucket, and resets in
// between. Every returned time must agree, and so must the buckets.
func TestWheelMatchesScanModel(t *testing.T) {
	for seed := uint64(1); seed <= 64; seed++ {
		rng := engine.NewRNG(seed)
		var w wheel
		ref := new(refWheel)
		var now engine.Cycles
		for op := 0; op < 3000; op++ {
			switch r := rng.Intn(100); {
			case r < 1:
				w.reset()
				ref = new(refWheel)
				now = engine.Cycles(rng.Intn(4 * wheelSpan))
			case r < 4: // jump ahead, up to twice the history bound
				now += engine.Cycles(rng.Uint64n(2 * wheelBuckets * wheelSpan))
			case r < 12: // straggler, possibly behind the ring's history
				now -= engine.Cycles(rng.Uint64n(uint64(now)/2 + 1))
				if rng.Intn(4) == 0 {
					now -= engine.Cycles(rng.Uint64n(wheelBuckets * wheelSpan))
				}
			default:
				now += engine.Cycles(rng.Intn(3000))
			}
			now = max(now, 0)
			at := now
			if rng.Intn(20) == 0 {
				at = -engine.Cycles(rng.Intn(100)) // clamps to zero
			}
			dur := engine.Cycles(1 + rng.Intn(800))
			if rng.Intn(10) == 0 {
				dur = engine.Cycles(wheelSpan + rng.Intn(3*wheelSpan)) // longer than a bucket
			}
			var got, want engine.Cycles
			kind := "FIFO"
			if rng.Intn(2) == 0 {
				got, want = w.reserveFIFO(at, dur), ref.reserveFIFO(at, dur)
			} else {
				kind = "capacity"
				got, want = w.reserveCapacity(at, dur), ref.reserveCapacity(at, dur)
			}
			if got != want {
				t.Fatalf("seed %d op %d: %s booking of %d at %d returned %d, reference %d (ring %d buckets)",
					seed, op, kind, dur, at, got, want, len(w.b))
			}
			if msg := sameBuckets(&w, ref); msg != "" {
				t.Fatalf("seed %d op %d after a %s booking of %d at %d: %s", seed, op, kind, dur, at, msg)
			}
			if err := checkWheel(&w, 4*wheelSpan); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
		}
	}
}

// A short run books a short ring: the rings grow with the simulated span
// they cover, not to the history bound.
func TestWheelSizedBySpan(t *testing.T) {
	var w wheel
	for at := engine.Cycles(0); at < 20*wheelSpan; at += 700 {
		w.reserveFIFO(at, 600)
	}
	if len(w.b) != 32 {
		t.Errorf("a 20-bucket span booked a %d-bucket ring, want 32", len(w.b))
	}
	w.reserveCapacity(5000*wheelSpan, 1)
	if len(w.b) != wheelBuckets {
		t.Errorf("a span past the history bound booked a %d-bucket ring, want %d", len(w.b), wheelBuckets)
	}
}

// ResetTiming clears the rings in place: replaying the same traffic after it
// returns the same completion times and allocates nothing.
func TestResetTimingReplayAllocatesNothing(t *testing.T) {
	m := New(channelConfig(2), &stats.Stats{})
	base := m.Config().NVRAMBase
	buf := make([]byte, LineBytes)
	done := make([]engine.Cycles, 0, 600)
	replay := func() {
		done = done[:0]
		at := engine.Cycles(0)
		for i := 0; i < 600; i++ {
			pa := base + PAddr(i*37%512)*LineBytes
			if i%3 == 0 {
				at = m.ReadLine(pa, buf, at)
			} else {
				at = m.WriteLine(PAddr(i%256)*LineBytes, buf, at, stats.CatData)
				at = m.WriteLine(pa, buf, at-100, stats.CatData)
			}
			done = append(done, at)
		}
	}
	replay()
	first := append([]engine.Cycles(nil), done...)
	if n := testing.AllocsPerRun(10, func() {
		m.ResetTiming()
		replay()
	}); n != 0 {
		t.Errorf("ResetTiming and replay allocated %.1f times per run", n)
	}
	for i := range first {
		if done[i] != first[i] {
			t.Fatalf("access %d completed at %d after ResetTiming, %d before", i, done[i], first[i])
		}
	}
}
