package pds

import (
	"testing"

	"repro/internal/engine"
	"repro/ssp"
)

func newMachine(b ssp.Backend) *ssp.Machine {
	return ssp.MustNew(ssp.Config{
		Backend:      b,
		Cores:        1,
		NVRAMMB:      48,
		DRAMMB:       2,
		MaxHeapPages: 6144,
		JournalKB:    64,
	})
}

// opTest drives randomized insert/delete/get traffic against a reference
// map, committing each op as its own transaction.
type kvops interface {
	Insert(tx *ssp.Core, k, v uint64) bool
	Delete(tx *ssp.Core, k uint64) bool
	Get(tx *ssp.Core, k uint64) (uint64, bool)
	Len(tx *ssp.Core) uint64
}

func runKVPropertyTest(t *testing.T, m *ssp.Machine, s kvops, seed uint64, ops int, keySpace uint64) {
	t.Helper()
	c := m.Core(0)
	rng := engine.NewRNG(seed)
	ref := map[uint64]uint64{}
	for i := 0; i < ops; i++ {
		k := rng.Uint64n(keySpace)
		switch rng.Intn(3) {
		case 0: // insert/update
			v := rng.Uint64()
			c.Begin()
			added := s.Insert(c, k, v)
			c.Commit()
			_, existed := ref[k]
			if added == existed {
				t.Fatalf("op %d: Insert(%d) added=%v existed=%v", i, k, added, existed)
			}
			ref[k] = v
		case 1: // delete
			c.Begin()
			removed := s.Delete(c, k)
			c.Commit()
			if _, existed := ref[k]; removed != existed {
				t.Fatalf("op %d: Delete(%d) removed=%v existed=%v", i, k, removed, existed)
			}
			delete(ref, k)
		case 2: // get
			v, ok := s.Get(c, k)
			rv, rok := ref[k]
			if ok != rok || (ok && v != rv) {
				t.Fatalf("op %d: Get(%d) = (%d,%v), want (%d,%v)", i, k, v, ok, rv, rok)
			}
		}
	}
	if got := s.Len(c); got != uint64(len(ref)) {
		t.Fatalf("Len = %d, want %d", got, len(ref))
	}
	// Full sweep.
	for k, rv := range ref {
		if v, ok := s.Get(c, k); !ok || v != rv {
			t.Fatalf("final Get(%d) = (%d,%v), want %d", k, v, ok, rv)
		}
	}
}

func TestBTreeAgainstReference(t *testing.T) {
	for _, b := range ssp.Backends() {
		t.Run(b.String(), func(t *testing.T) {
			m := newMachine(b)
			c := m.Core(0)
			c.Begin()
			bt := CreateBTree(c, m.Heap())
			c.Commit()
			runKVPropertyTest(t, m, bt, 0xB7EE+uint64(b), 3000, 400)
		})
	}
}

func TestRBTreeAgainstReference(t *testing.T) {
	for _, b := range ssp.Backends() {
		t.Run(b.String(), func(t *testing.T) {
			m := newMachine(b)
			c := m.Core(0)
			c.Begin()
			rb := CreateRBTree(c, m.Heap())
			c.Commit()
			runKVPropertyTest(t, m, rb, 0x4B+uint64(b), 3000, 400)
		})
	}
}

func TestHashAgainstReference(t *testing.T) {
	for _, b := range ssp.Backends() {
		t.Run(b.String(), func(t *testing.T) {
			m := newMachine(b)
			c := m.Core(0)
			c.Begin()
			h := CreateHash(c, m.Heap(), 256)
			c.Commit()
			runKVPropertyTest(t, m, h, 0x6A54+uint64(b), 3000, 400)
		})
	}
}

func TestRBTreeInvariantsHold(t *testing.T) {
	m := newMachine(ssp.SSP)
	c := m.Core(0)
	c.Begin()
	rb := CreateRBTree(c, m.Heap())
	c.Commit()
	rng := engine.NewRNG(0xCC)
	live := map[uint64]bool{}
	for i := 0; i < 1200; i++ {
		k := rng.Uint64n(300)
		c.Begin()
		if live[k] {
			rb.Delete(c, k)
			delete(live, k)
		} else {
			rb.Insert(c, k, k*3)
			live[k] = true
		}
		c.Commit()
		if i%25 == 0 {
			if rb.CheckInvariants(c) < 0 {
				t.Fatalf("red-black invariants violated after op %d", i)
			}
		}
	}
	if rb.CheckInvariants(c) < 0 {
		t.Fatal("red-black invariants violated at end")
	}
}

func TestBTreeOrderedIteration(t *testing.T) {
	m := newMachine(ssp.SSP)
	c := m.Core(0)
	c.Begin()
	bt := CreateBTree(c, m.Heap())
	c.Commit()
	rng := engine.NewRNG(42)
	keys := map[uint64]bool{}
	for i := 0; i < 500; i++ {
		k := rng.Uint64n(10000)
		c.Begin()
		bt.Insert(c, k, k+1)
		c.Commit()
		keys[k] = true
	}
	var prev uint64
	first := true
	n := bt.Range(c, 0, 1<<30, func(k, v uint64) bool {
		if !first && k <= prev {
			t.Fatalf("range out of order: %d after %d", k, prev)
		}
		if v != k+1 {
			t.Fatalf("range wrong value for %d: %d", k, v)
		}
		prev, first = k, false
		return true
	})
	if n != len(keys) {
		t.Fatalf("range visited %d, want %d", n, len(keys))
	}
}

func TestBTreeSplitsDeep(t *testing.T) {
	m := newMachine(ssp.SSP)
	c := m.Core(0)
	c.Begin()
	bt := CreateBTree(c, m.Heap())
	c.Commit()
	// Sequential inserts force rightmost splits through multiple levels.
	const n = 3000
	for i := uint64(0); i < n; i++ {
		c.Begin()
		bt.Insert(c, i, i)
		c.Commit()
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := bt.Get(c, i); !ok || v != i {
			t.Fatalf("lost key %d after deep splits", i)
		}
	}
	if bt.Len(c) != n {
		t.Fatalf("Len = %d", bt.Len(c))
	}
}

func TestStructuresSurviveCrash(t *testing.T) {
	for _, b := range ssp.Backends() {
		t.Run(b.String(), func(t *testing.T) {
			m := newMachine(b)
			c := m.Core(0)
			c.Begin()
			bt := CreateBTree(c, m.Heap())
			rb := CreateRBTree(c, m.Heap())
			hs := CreateHash(c, m.Heap(), 64)
			ar := CreateArray(c, m.Heap(), 128)
			m.SetRoot(c, 0, bt.Head())
			m.SetRoot(c, 1, rb.Head())
			m.SetRoot(c, 2, hs.Head())
			m.SetRoot(c, 3, ar.Head())
			c.Commit()

			rng := engine.NewRNG(7)
			ref := map[uint64]uint64{}
			for i := 0; i < 300; i++ {
				k := rng.Uint64n(100)
				v := rng.Uint64()
				c.Begin()
				bt.Insert(c, k, v)
				rb.Insert(c, k, v)
				hs.Insert(c, k, v)
				ar.Set(c, int(k%128), v)
				c.Commit()
				ref[k] = v
			}
			// An uncommitted mutation right before the crash.
			c.Begin()
			bt.Insert(c, 999, 0xDEAD)
			rb.Insert(c, 999, 0xDEAD)

			img := m.Crash()
			m2, err := ssp.Restore(m.ConfigUsed(), img)
			if err != nil {
				t.Fatal(err)
			}
			c2 := m2.Core(0)
			h2 := m2.Heap()
			bt2 := OpenBTree(h2, m2.Root(c2, 0))
			rb2 := OpenRBTree(h2, m2.Root(c2, 1))
			hs2 := OpenHash(h2, m2.Root(c2, 2))
			ar2 := OpenArray(h2, m2.Root(c2, 3))

			for k, v := range ref {
				if got, ok := bt2.Get(c2, k); !ok || got != v {
					t.Fatalf("btree lost %d after crash: (%d,%v)", k, got, ok)
				}
				if got, ok := rb2.Get(c2, k); !ok || got != v {
					t.Fatalf("rbtree lost %d after crash: (%d,%v)", k, got, ok)
				}
				if got, ok := hs2.Get(c2, k); !ok || got != v {
					t.Fatalf("hash lost %d after crash: (%d,%v)", k, got, ok)
				}
			}
			if _, ok := bt2.Get(c2, 999); ok {
				t.Fatal("uncommitted btree insert visible after crash")
			}
			if _, ok := rb2.Get(c2, 999); ok {
				t.Fatal("uncommitted rbtree insert visible after crash")
			}
			if rb2.CheckInvariants(c2) < 0 {
				t.Fatal("rbtree invariants broken after crash")
			}
			_ = ar2
		})
	}
}

func TestArraySwap(t *testing.T) {
	m := newMachine(ssp.SSP)
	c := m.Core(0)
	c.Begin()
	ar := CreateArray(c, m.Heap(), 1000)
	for i := 0; i < 1000; i++ {
		ar.Set(c, i, uint64(i))
	}
	c.Commit()
	rng := engine.NewRNG(3)
	ref := make([]uint64, 1000)
	for i := range ref {
		ref[i] = uint64(i)
	}
	for op := 0; op < 500; op++ {
		i, j := rng.Intn(1000), rng.Intn(1000)
		c.Begin()
		ar.Swap(c, i, j)
		c.Commit()
		ref[i], ref[j] = ref[j], ref[i]
	}
	for i := 0; i < 1000; i++ {
		if got := ar.Get(c, i); got != ref[i] {
			t.Fatalf("array[%d] = %d, want %d", i, got, ref[i])
		}
	}
	if ar.Len(c) != 1000 {
		t.Fatalf("Len = %d", ar.Len(c))
	}
}

func TestArrayBoundsPanics(t *testing.T) {
	m := newMachine(ssp.SSP)
	c := m.Core(0)
	c.Begin()
	ar := CreateArray(c, m.Heap(), 4)
	c.Commit()
	defer func() {
		if recover() == nil {
			t.Error("out-of-bounds access should panic")
		}
	}()
	ar.Get(c, 4)
}

func TestHashCollisionChains(t *testing.T) {
	m := newMachine(ssp.SSP)
	c := m.Core(0)
	c.Begin()
	h := CreateHash(c, m.Heap(), 2) // tiny table: everything collides
	c.Commit()
	for k := uint64(0); k < 50; k++ {
		c.Begin()
		h.Insert(c, k, k*7)
		c.Commit()
	}
	for k := uint64(0); k < 50; k++ {
		if v, ok := h.Get(c, k); !ok || v != k*7 {
			t.Fatalf("chained get %d failed", k)
		}
	}
	// Delete middle-of-chain entries.
	for k := uint64(10); k < 40; k += 3 {
		c.Begin()
		if !h.Delete(c, k) {
			t.Fatalf("delete %d failed", k)
		}
		c.Commit()
	}
	for k := uint64(0); k < 50; k++ {
		_, ok := h.Get(c, k)
		deleted := k >= 10 && k < 40 && (k-10)%3 == 0
		if ok == deleted {
			t.Fatalf("key %d: ok=%v deleted=%v", k, ok, deleted)
		}
	}
}
