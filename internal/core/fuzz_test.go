package core

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/wal"
)

// FuzzRecoverJournal recovers fresh two-shard SSP machines whose journal
// shards hold fuzzed records, each framed with a valid checksum: Recover
// must return, with an error or without, and never panic. The input is an
// epoch flag byte, then records of four header bytes (shard, kind, TID
// step, payload length) and the payload; TIDs only grow, as every writer's
// do. The seed corpus is the journal of a run with local and cross-shard
// relaxed commits, with and without a malformed record appended.
//
//	go test -run '^$' -fuzz FuzzRecoverJournal -fuzztime 10s ./internal/core
func FuzzRecoverJournal(f *testing.F) {
	env, s := shardEnv(f, 2, 2)
	s.cfg.DurabilityEpoch = 1 << 30
	for vpn := 0; vpn < 4; vpn++ {
		mapPage(env, vpn)
	}
	now := engine.Cycles(0)
	for i := 0; i < 8; i++ {
		c := i % 2
		if i%3 == 0 {
			now = s.BeginGlobal(c, now)
		} else {
			now = s.Begin(c, now)
		}
		now = s.Store(c, va(i%4, i), []byte{byte(i + 1)}, now)
		now = s.Store(c, va((i+1)%4, i), []byte{byte(i + 1)}, now)
		now = s.CommitRelaxed(c, now)
	}
	now = s.Sync(0, now)
	seed := []byte{1}
	var tid uint32
	for si, base := range env.Layout.JournalBase {
		for _, r := range wal.Scan(env.Mem, base, env.Layout.Cfg.JournalBytes) {
			step := r.TID - min(tid, r.TID) // seals reuse a shard's last TID
			tid = max(tid, r.TID)
			seed = append(seed, byte(si), r.Kind, byte(step), byte(len(r.Payload)))
			seed = append(seed, r.Payload...)
		}
	}
	f.Add(seed)
	f.Add(append(append([]byte{}, seed...), 0, recUpdate, 1, 3, 1, 2, 3))
	f.Add([]byte{0, 0, recGlobalEnd, 1, 3, 1, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		env, s := shardEnv(t, 2, 2)
		if len(data) > 0 && data[0]%2 == 1 {
			s.cfg.DurabilityEpoch = 1 << 30
		}
		data = data[min(1, len(data)):]
		var tid uint32
		for len(data) >= 4 {
			j := s.journals[int(data[0])%len(s.journals)]
			kind, n := data[1], min(int(data[3]), len(data)-4, wal.MaxPayload)
			tid += uint32(data[2])
			if j.Used()+wal.HeaderBytes+n+7 > j.Capacity() {
				break
			}
			j.Append(wal.Record{TID: tid, Kind: kind, Payload: data[4 : 4+n]}, 0)
			data = data[4+n:]
		}
		for _, j := range s.journals {
			j.Flush(0)
		}
		s.Crash()
		env.Caches.DropAll()
		for _, tl := range env.TLBs {
			tl.Drop()
		}
		_ = s.Recover()
	})
}
