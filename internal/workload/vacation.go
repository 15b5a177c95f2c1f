package workload

import (
	"repro/internal/engine"
	"repro/ssp"
	"repro/ssp/pds"
)

// Vacation-lite: an OLTP emulation in the shape of STAMP's vacation
// benchmark (§5.1: "Four clients; 16 million tuples" — tuple count is the
// Tuples parameter here). Three resource tables (cars, flights, rooms) and
// a customer table are persistent red-black trees; reservations are
// persistent list nodes hanging off customers.
//
// Transaction mix (STAMP's user-query dominated default): 80%
// make-reservation, 10% delete-customer, 10% update-tables.
const (
	vacResourceTables = 3
	vacReserveEntry   = 32 // type, id, price, next
)

type vacationState struct {
	resources [vacResourceTables]*pds.RBTree
	customers *pds.RBTree
	tuples    int
	alloc     ssp.Allocator // reservation-entry allocator (heap or per-core arena)

	// relaxed is the run's commit mode (Params.Relaxed); the helpers below
	// commit internally, so the mode rides here.
	relaxed bool
}

// packResource packs (free count, price) into a tree value.
func packResource(free, price uint32) uint64 { return uint64(free)<<32 | uint64(price) }

func unpackResource(v uint64) (free, price uint32) {
	return uint32(v >> 32), uint32(v)
}

// newVacation creates one table set on core c over tuples rows, its
// structures allocated from alloc(c) inside the setup transaction, and
// populates it: every resource starts with capacity and a price drawn from
// rng; customers start without reservations.
func newVacation(c *ssp.Core, alloc func(*ssp.Core) ssp.Allocator, tuples int, relaxed bool, rng *engine.RNG) *vacationState {
	c.Begin()
	a := alloc(c)
	st := &vacationState{tuples: tuples, alloc: a, relaxed: relaxed}
	for t := 0; t < vacResourceTables; t++ {
		st.resources[t] = pds.CreateRBTree(c, a)
	}
	st.customers = pds.CreateRBTree(c, a)
	c.Commit()

	for id := 0; id < tuples; id++ {
		c.Begin()
		for tbl := 0; tbl < vacResourceTables; tbl++ {
			price := uint32(50 + rng.Intn(450))
			st.resources[tbl].Insert(c, uint64(id), packResource(100, price))
		}
		c.Commit()
	}
	return st
}

// vacTxn runs one transaction of the mix on st under lock.
func vacTxn(c *ssp.Core, st *vacationState, rng *engine.RNG, lock *ssp.Lock) {
	r := rng.Intn(10)
	c.Acquire(lock)
	switch {
	case r < 8:
		vacMakeReservation(c, st, rng)
	case r < 9:
		vacDeleteCustomer(c, st, rng)
	default:
		vacUpdateTables(c, st, rng)
	}
	c.Release(lock)
}

// buildVacation is the serial deployment: one table set on the heap, shared
// by every client under one coarse-grained lock, as with lock-based STAMP
// ports.
func buildVacation(m *ssp.Machine, p Params) []*client {
	seedRng := engine.NewRNG(p.Seed + 7)
	st := newVacation(m.Core(0), func(*ssp.Core) ssp.Allocator { return m.Heap() }, p.Tuples, p.Relaxed, seedRng)
	lock := m.NewLock()
	var clients []*client
	for i := 0; i < p.Clients; i++ {
		c := m.Core(i)
		crng := seedRng.Fork()
		clients = append(clients, &client{core: c, op: func() { vacTxn(c, st, crng, lock) }})
	}
	return clients
}

// buildPartitionedVacation shards the OLTP state: each core owns a full
// table set (cars/flights/rooms/customers) over its own tuple range and
// arena — the database-partitioned deployment of the same transaction mix.
// In the VacationCross mix a global transaction runs the update-tables body
// against 2-4 partitions — a fleet-wide price/capacity change — inside one
// BeginGlobal section (crossmix.go).
func buildPartitionedVacation(m *ssp.Machine, p Params) []*client {
	perTuples := max(p.Tuples/p.Clients, 64)
	arenaPages := pagesFor(perTuples*(vacResourceTables+1)*64 + perTuples*vacReserveEntry)

	seedRng := engine.NewRNG(p.Seed + 7)
	states := make([]*vacationState, p.Clients)
	locks := make([]*ssp.Lock, p.Clients)
	var clients []*client
	for i := range states {
		c := m.Core(i)
		states[i] = newVacation(c, func(c *ssp.Core) ssp.Allocator { return m.NewArena(c, arenaPages) }, perTuples, p.Relaxed, seedRng)
		locks[i] = m.NewLock()
		crng := seedRng.Fork()
		clients = append(clients, &client{core: c, op: func() {
			if crossCoin(p, crng) {
				global(c, crng, locks, i, p.Relaxed, func(s int) { vacUpdateTablesBody(c, states[s], crng) })
				return
			}
			vacTxn(c, states[i], crng, locks[i])
		}})
	}
	return clients
}

// vacMakeReservation queries a handful of resources per table (the read
// phase), then books the cheapest available one of each chosen type for a
// customer: decrement its free count and append a reservation entry.
func vacMakeReservation(c *ssp.Core, st *vacationState, rng *engine.RNG) {
	custID := rng.Uint64n(uint64(st.tuples))
	nQueries := 1 + rng.Intn(4)

	c.Begin()
	// Ensure the customer exists (insert on first reservation).
	listHead, ok := st.customers.Get(c, custID)
	if !ok {
		st.customers.Insert(c, custID, 0)
		listHead = 0
	}
	for q := 0; q < nQueries; q++ {
		tbl := rng.Intn(vacResourceTables)
		// Read phase: scan a few candidate resources for the cheapest
		// available.
		bestID := uint64(0)
		bestVal := uint64(0)
		found := false
		for probe := 0; probe < 4; probe++ {
			id := rng.Uint64n(uint64(st.tuples))
			v, ok := st.resources[tbl].Get(c, id)
			if !ok {
				continue
			}
			free, price := unpackResource(v)
			if free == 0 {
				continue
			}
			if !found || price < uint32(bestVal) {
				bestID, bestVal, found = id, v, true
			}
		}
		if !found {
			continue
		}
		// Write phase: book it.
		free, price := unpackResource(bestVal)
		st.resources[tbl].Insert(c, bestID, packResource(free-1, price))
		entry := st.alloc.Alloc(c, vacReserveEntry)
		c.Store64(entry+0, uint64(tbl))
		c.Store64(entry+8, bestID)
		c.Store64(entry+16, uint64(price))
		c.Store64(entry+24, listHead)
		listHead = entry
	}
	st.customers.Insert(c, custID, listHead)
	commit(c, st.relaxed)
}

// vacDeleteCustomer releases all of a customer's reservations and removes
// the customer.
func vacDeleteCustomer(c *ssp.Core, st *vacationState, rng *engine.RNG) {
	custID := rng.Uint64n(uint64(st.tuples))
	c.Begin()
	listHead, ok := st.customers.Get(c, custID)
	if !ok {
		commit(c, st.relaxed)
		return
	}
	for e := listHead; e != 0; {
		tbl := int(c.Load64(e + 0))
		id := c.Load64(e + 8)
		if v, ok := st.resources[tbl].Get(c, id); ok {
			free, price := unpackResource(v)
			st.resources[tbl].Insert(c, id, packResource(free+1, price))
		}
		next := c.Load64(e + 24)
		st.alloc.Free(c, e, vacReserveEntry)
		e = next
	}
	st.customers.Delete(c, custID)
	commit(c, st.relaxed)
}

// vacUpdateTables changes prices or adds capacity for a few resources (the
// administrative mix component).
func vacUpdateTables(c *ssp.Core, st *vacationState, rng *engine.RNG) {
	c.Begin()
	vacUpdateTablesBody(c, st, rng)
	commit(c, st.relaxed)
}

// vacUpdateTablesBody is the update-tables write set without the section
// brackets, so the cross-shard mix can apply it to several partitions
// inside one global transaction (see crossmix.go).
func vacUpdateTablesBody(c *ssp.Core, st *vacationState, rng *engine.RNG) {
	n := 1 + rng.Intn(4)
	for i := 0; i < n; i++ {
		tbl := rng.Intn(vacResourceTables)
		id := rng.Uint64n(uint64(st.tuples))
		v, ok := st.resources[tbl].Get(c, id)
		if !ok {
			continue
		}
		free, price := unpackResource(v)
		if rng.Intn(2) == 0 {
			price = uint32(50 + rng.Intn(450))
		} else {
			free += 10
		}
		st.resources[tbl].Insert(c, id, packResource(free, price))
	}
}
