package tlbsim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/memsim"
	"repro/internal/stats"
)

// The reference model: the map-indexed, pointer-linked TLB the array layout
// replaced. It is kept only to hold the arrays to it (TestTLBMatchesScanModel).

type refNode struct {
	vpn        VPN
	ppn        memsim.PAddr
	prev, next *refNode
}

type refLRU struct {
	cap        int
	m          map[VPN]*refNode
	head, tail *refNode
}

func newRefLRU(capacity int) *refLRU {
	return &refLRU{cap: capacity, m: make(map[VPN]*refNode, capacity)}
}

func (c *refLRU) unlink(n *refNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *refLRU) pushFront(n *refNode) {
	n.prev, n.next = nil, c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *refLRU) get(vpn VPN) *refNode {
	n, ok := c.m[vpn]
	if !ok {
		return nil
	}
	c.unlink(n)
	c.pushFront(n)
	return n
}

func (c *refLRU) insert(n *refNode) *refNode {
	c.m[n.vpn] = n
	c.pushFront(n)
	if len(c.m) <= c.cap {
		return nil
	}
	victim := c.tail
	c.unlink(victim)
	delete(c.m, victim.vpn)
	return victim
}

func (c *refLRU) remove(vpn VPN) *refNode {
	n, ok := c.m[vpn]
	if !ok {
		return nil
	}
	c.unlink(n)
	delete(c.m, vpn)
	return n
}

type refTLB struct {
	l1, l2  *refLRU
	st      *stats.Stats
	onEvict func(VPN)
}

func (t *refTLB) Lookup(vpn VPN) (memsim.PAddr, int, bool) {
	if n := t.l1.get(vpn); n != nil {
		t.st.TLBHits++
		return n.ppn, 1, true
	}
	if t.l2 != nil {
		if n := t.l2.remove(vpn); n != nil {
			t.st.TLB2Hits++
			t.promote(n)
			return n.ppn, 2, true
		}
	}
	t.st.TLBMisses++
	return 0, 0, false
}

func (t *refTLB) promote(n *refNode) {
	victim := t.l1.insert(n)
	if victim == nil {
		return
	}
	if t.l2 == nil {
		t.evicted(victim.vpn)
		return
	}
	if out := t.l2.insert(victim); out != nil {
		t.evicted(out.vpn)
	}
}

func (t *refTLB) evicted(vpn VPN) {
	t.st.TLBEvictions++
	t.onEvict(vpn)
}

func (t *refTLB) Contains(vpn VPN) bool {
	if t.l1.m[vpn] != nil {
		return true
	}
	return t.l2 != nil && t.l2.m[vpn] != nil
}

func (t *refTLB) Insert(vpn VPN, ppn memsim.PAddr) {
	if n := t.l1.get(vpn); n != nil {
		n.ppn = ppn
		return
	}
	if t.l2 != nil {
		if n := t.l2.remove(vpn); n != nil {
			n.ppn = ppn
			t.promote(n)
			return
		}
	}
	t.promote(&refNode{vpn: vpn, ppn: ppn})
}

func (t *refTLB) UpdatePPN(vpn VPN, ppn memsim.PAddr) {
	if n := t.l1.m[vpn]; n != nil {
		n.ppn = ppn
		return
	}
	if t.l2 != nil {
		if n := t.l2.m[vpn]; n != nil {
			n.ppn = ppn
		}
	}
}

func (t *refTLB) Invalidate(vpn VPN) {
	if n := t.l1.remove(vpn); n != nil {
		t.evicted(vpn)
		return
	}
	if t.l2 != nil {
		if n := t.l2.remove(vpn); n != nil {
			t.evicted(vpn)
		}
	}
}

func (t *refTLB) Drop() {
	t.l1 = newRefLRU(t.l1.cap)
	if t.l2 != nil {
		t.l2 = newRefLRU(t.l2.cap)
	}
}

// Resident lists L1 then L2, most recent first: the recency order itself.
func (t *refTLB) Resident() []VPN {
	var out []VPN
	for _, c := range []*refLRU{t.l1, t.l2} {
		if c == nil {
			continue
		}
		for n := c.head; n != nil; n = n.next {
			out = append(out, n.vpn)
		}
	}
	return out
}

// TestTLBMatchesScanModel drives the array TLB and the map-and-list model
// with the same seeded operation sequences, on sizes small enough that
// promotion, demotion and eviction happen constantly, and requires identical
// results, counters, eviction-callback sequences and recency order after
// every operation. The last two shapes hold more entries than the index
// starts with room for, so their levels' indexes grow mid-sequence.
func TestTLBMatchesScanModel(t *testing.T) {
	for _, shape := range [][2]int{{1, 0}, {4, 0}, {2, 3}, {4, 8}, {8, 5}, {24, 0}, {8, 40}} {
		for seed := uint64(1); seed <= 6; seed++ {
			t.Run(fmt.Sprintf("L1=%d,L2=%d,seed=%d", shape[0], shape[1], seed), func(t *testing.T) {
				var gotEv, wantEv []VPN
				gst, wst := &stats.Stats{}, &stats.Stats{}
				got := NewTwoLevel(shape[0], shape[1], gst)
				got.OnEvict = func(v VPN) { gotEv = append(gotEv, v) }
				want := &refTLB{l1: newRefLRU(shape[0]), st: wst, onEvict: func(v VPN) { wantEv = append(wantEv, v) }}
				if shape[1] > 0 {
					want.l2 = newRefLRU(shape[1])
				}
				rng := engine.NewRNG(seed)
				span := 2 * (shape[0] + shape[1] + 1)
				for op := 0; op < 4000; op++ {
					vpn := VPN(rng.Intn(span))
					ppn := memsim.PAddr(rng.Intn(1 << 20))
					var what string
					switch r := rng.Intn(100); {
					case r < 45:
						what = "Lookup"
						gp, gl, gh := got.Lookup(vpn)
						wp, wl, wh := want.Lookup(vpn)
						if gp != wp || gl != wl || gh != wh {
							t.Fatalf("op %d Lookup(%d) = %#x,%d,%v; model %#x,%d,%v", op, vpn, gp, gl, gh, wp, wl, wh)
						}
					case r < 80:
						what = "Insert"
						got.Insert(vpn, ppn)
						want.Insert(vpn, ppn)
					case r < 88:
						what = "UpdatePPN"
						got.UpdatePPN(vpn, ppn)
						want.UpdatePPN(vpn, ppn)
					case r < 96:
						what = "Invalidate"
						got.Invalidate(vpn)
						want.Invalidate(vpn)
					case r < 98:
						what = "Contains"
						if g, w := got.Contains(vpn), want.Contains(vpn); g != w {
							t.Fatalf("op %d Contains(%d) = %v; model %v", op, vpn, g, w)
						}
					default:
						what = "Drop"
						got.Drop()
						want.Drop()
					}
					if *gst != *wst {
						t.Fatalf("op %d %s(%d): stats diverge\n got %+v\nwant %+v", op, what, vpn, *gst, *wst)
					}
					if !slices.Equal(gotEv, wantEv) {
						t.Fatalf("op %d %s(%d): evictions %v; model %v", op, what, vpn, gotEv, wantEv)
					}
					if g, w := got.Resident(), want.Resident(); !slices.Equal(g, w) {
						t.Fatalf("op %d %s(%d): resident %v; model %v", op, what, vpn, g, w)
					}
				}
				last := got.l1
				if got.l2 != nil {
					last = got.l2
				}
				if grows := last.cap > minIndexSlots/2; grows != (len(last.index) > minIndexSlots) {
					t.Fatalf("the last level of %d entries ended with %d index slots; the test wants growth exactly when it outgrows %d", last.cap, len(last.index), minIndexSlots)
				}
			})
		}
	}
}

// Drop allocates nothing: the trap sweep power-cycles a machine at every
// trap point.
func TestDropAllocatesNothing(t *testing.T) {
	tlb := NewTwoLevel(64, 1024, &stats.Stats{})
	fill := func() {
		for v := VPN(0); v < 2000; v++ {
			tlb.Insert(v, memsim.PAddr(v)<<memsim.PageShift)
		}
	}
	fill()
	if n := testing.AllocsPerRun(20, func() { tlb.Drop(); fill() }); n != 0 {
		t.Errorf("Drop and refill allocated %.1f times per run", n)
	}
}
