package experiments

import (
	"fmt"

	"repro/internal/engine"
	"repro/ssp"
	"repro/ssp/pds"
)

// Recovery-effort experiment (beyond the paper's figures, motivated by
// §4.1.2: checkpointing exists "to limit the growth of the journaling space
// and also to bound the recovery time"): crash an SSP machine mid-workload
// under different journal capacities and measure how much recovery work the
// surviving journal implies.

// RecoveryRow is one journal-capacity configuration's outcome.
type RecoveryRow struct {
	JournalKB       int
	Checkpoints     uint64 // checkpoints during the run
	ReplayedRecords uint64 // journal records applied at recovery
	RecoveryWrites  uint64 // NVRAM writes performed by recovery
	Recovered       bool   // post-recovery integrity verified
}

// RecoveryEffort runs a red-black-tree workload on SSP, crashes it, and
// recovers, for several journal sizes. Larger journals checkpoint less
// often but leave more records to replay after a crash.
func RecoveryEffort(sc Scale) []RecoveryRow {
	var rows []RecoveryRow
	for _, kb := range []int{16, 64, 256} {
		cfg := ssp.Config{
			Backend:   ssp.SSP,
			Cores:     1,
			NVRAMMB:   192,
			DRAMMB:    4,
			JournalKB: kb,
		}
		if sc.STLB != 0 {
			cfg.STLBEntries = sc.STLB
		}
		m := ssp.MustNew(cfg)
		c := m.Core(0)
		c.Begin()
		rb := pds.CreateRBTree(c, m.Heap())
		m.SetRoot(c, 0, rb.Head())
		c.Commit()

		rng := engine.NewRNG(sc.Seed)
		ref := map[uint64]uint64{}
		for i := 0; i < sc.Ops; i++ {
			k := rng.Uint64n(sc.Keys)
			v := rng.Uint64()
			c.Begin()
			rb.Insert(c, k, v)
			c.Commit()
			ref[k] = v
		}
		ckpts := m.Stats().Checkpoints

		img := m.Crash()
		m2, err := ssp.Restore(cfg, img)
		row := RecoveryRow{JournalKB: kb, Checkpoints: ckpts}
		if err == nil {
			st := m2.Stats()
			row.ReplayedRecords = st.ReplayedRecords
			row.RecoveryWrites = st.RecoveryNVWrites
			// Verify a sample of committed state.
			c2 := m2.Core(0)
			rb2 := pds.OpenRBTree(m2.Heap(), m2.Root(c2, 0))
			row.Recovered = true
			n := 0
			for k, v := range ref {
				if got, ok := rb2.Get(c2, k); !ok || got != v {
					row.Recovered = false
					break
				}
				if n++; n >= 256 {
					break
				}
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// RenderRecovery formats the recovery-effort rows.
func RenderRecovery(rows []RecoveryRow) string {
	out := "recovery effort vs journal capacity (SSP, RBTree workload)\n"
	out += fmt.Sprintf("%-10s %12s %16s %15s %10s\n", "journal", "checkpoints", "replayed records", "recovery writes", "verified")
	for _, r := range rows {
		out += fmt.Sprintf("%7dKiB %12d %16d %15d %10v\n",
			r.JournalKB, r.Checkpoints, r.ReplayedRecords, r.RecoveryWrites, r.Recovered)
	}
	return out
}
